// whatif-churn: the default-scale network in a delta::Reverifier.  A seeded
// sequence of deltas (remove one forwarding rule or take one link down, then
// revert it) goes through Reverifier::apply in what-if sessions of
// k_session_deltas deltas.  Each session starts with the set-up: the XML
// documents loaded into a fresh Reverifier (setup_s is the median over the
// sessions, so the set-ups sample the host over the whole run).  After each
// delta, a fixed watch-list
// (the Table-1 queries without the stress query) is re-answered through
// Reverifier::verify and encoded.  Every few deltas a single-link-failure
// sweep (endpoint pairs x k in {0,1} x scenarios, 2 jobs) runs on the
// current snapshot.  Checks: the verdicts of generation 0 and of every
// revert generation (the network is back in its loaded state) against the
// references, every YES witness replayed, every third generation (edits and
// reverts alike) compared byte for byte with a cold verify of the same
// snapshot, and two cells of every sweep compared with a cold verify of
// their scenario network.
//
// The cost of a warm re-answer grows with the generations a Reverifier has
// seen (README.md, "Findings"), so the delta and query figures come from
// complete sessions only: every run measures the same generation profile,
// and a faster Reverifier gets through more sessions instead of reaching
// costlier generations.  For the same reason peak_rss_mb is the median of
// the per-session peaks of the first k_rss_sessions sessions: the
// high-water mark is reset when a session starts and read when it
// completes.  Memory a session leaves behind is not all handed back, so the
// peaks creep up from session to session (README.md, "Findings"); a fixed
// set of sessions keeps the figure from growing with the number of sessions
// a faster run gets through, and the median keeps it from hanging on one
// session's deltas and sweeps.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>

#include "bench.hpp"
#include "delta/delta.hpp"
#include "delta/reverify.hpp"
#include "io/formats.hpp"
#include "io/results_json.hpp"
#include "synthesis/networks.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/sweep.hpp"

namespace perfbench {

namespace {

constexpr std::size_t k_sweep_every = 8;   ///< deltas between sweeps
/// Odd, so the sampled generations alternate between edits and reverts.
constexpr std::size_t k_cold_check_every = 3;
/// Deltas per what-if session; even, so a session ends on a revert and the
/// next fresh Reverifier starts from the network the sequence expects.
constexpr std::size_t k_session_deltas = 200;
static_assert(k_session_deltas % 2 == 0 && k_session_deltas % k_sweep_every == 0);
/// Sessions whose peak resident memory makes peak_rss_mb; a 50-s run
/// completes 10 to 15 on the 4-core host of README.md.
constexpr std::size_t k_rss_sessions = 5;
constexpr std::size_t k_sweep_pairs = 3;
constexpr std::size_t k_sweep_scenarios = 12; ///< link failures per sweep (+ baseline)
constexpr std::size_t k_sweep_jobs = 2;

using aw::delta::DeltaOp;

/// One forwarding rule addressed by names, removable and re-addable.
struct RuleSite {
    DeltaOp remove;
    DeltaOp add;
};

DeltaOp::LabelRef label_ref(const aw::LabelTable& labels, aw::Label label) {
    return {labels.type_of(label), labels.name_of(label)};
}

/// Every rule whose (in-link, label, out-link, ops) signature is unique —
/// remove-rule drops all matching copies, so only those toggle one rule.
std::vector<RuleSite> collect_sites(const aw::Network& network) {
    const auto& topology = network.topology;
    std::map<std::string, int> signatures;
    const auto signature_of = [](aw::LinkId in_link, aw::Label label, const aw::ForwardingRule& rule) {
        std::string sig = std::to_string(in_link) + '/' + std::to_string(label) + '/' +
                          std::to_string(rule.out_link);
        for (const auto& op : rule.ops)
            sig += '/' + std::to_string(static_cast<int>(op.kind)) + ':' + std::to_string(op.label);
        return sig;
    };
    network.routing.for_each([&](aw::LinkId in_link, aw::Label label, const aw::RoutingEntry& groups) {
        for (const auto& group : groups)
            for (const auto& rule : group) ++signatures[signature_of(in_link, label, rule)];
    });
    std::vector<RuleSite> sites;
    network.routing.for_each([&](aw::LinkId in_link, aw::Label label, const aw::RoutingEntry& groups) {
        const auto& in = topology.link(in_link);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            for (const auto& rule : groups[g]) {
                if (signatures[signature_of(in_link, label, rule)] != 1) continue;
                const auto& out = topology.link(rule.out_link);
                RuleSite site;
                site.remove.kind = DeltaOp::Kind::RemoveRule;
                site.remove.router = topology.router_name(in.target);
                site.remove.in_interface = topology.interface(in.target_interface).name;
                site.remove.out_interface = topology.interface(out.source_interface).name;
                site.remove.label = label_ref(network.labels, label);
                site.remove.match_ops = true;
                for (const auto& op : rule.ops)
                    site.remove.ops.push_back({op.kind, op.kind == aw::Op::Kind::Pop
                                                            ? DeltaOp::LabelRef{}
                                                            : label_ref(network.labels, op.label)});
                site.add = site.remove;
                site.add.kind = DeltaOp::Kind::AddRule;
                site.add.match_ops = false;
                site.add.priority = static_cast<std::uint32_t>(g + 1);
                sites.push_back(std::move(site));
            }
        }
    });
    return sites;
}

/// A link as (router, out-interface), or an endpoint pair as (source,
/// target) router names.
using NamePair = std::pair<std::string, std::string>;

DeltaOp link_state(const NamePair& link, bool up) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::LinkState;
    op.router = link.first;
    op.out_interface = link.second;
    op.up = up;
    return op;
}

/// Seeded passes over a list: every item once, in a freshly shuffled order
/// per pass, before any repeats.  Independent draws would leave how often
/// the few costly items come up (links on the watched queries' paths,
/// endpoint pairs with long paths) to the seed, and with it the run's
/// figures; passes give every seed the same mix in a different order.
template <typename T>
class Passes {
public:
    Passes(std::vector<T> items, std::uint64_t seed) : _items(std::move(items)), _rng(seed) {}

    T next() {
        if (_next == 0) std::shuffle(_items.begin(), _items.end(), _rng);
        auto item = _items[_next];
        _next = (_next + 1) % _items.size();
        return item;
    }

private:
    std::vector<T> _items;
    std::mt19937_64 _rng;
    std::size_t _next = 0;
};

/// The seeded delta sequence of a what-if session: each edit (remove one
/// rule, or take one link down) is followed by the delta that reverts it, so
/// the network keeps returning to its loaded state.
class DeltaSequence {
public:
    DeltaSequence(std::vector<RuleSite> sites, std::vector<NamePair> links, std::uint64_t seed)
        : _sites(std::move(sites), seed + 1), _links(std::move(links), seed + 2), _rng(seed) {}

    aw::delta::NetworkDelta next() {
        aw::delta::NetworkDelta delta;
        if (_revert) {
            delta.ops.push_back(*_revert);
            _revert.reset();
        } else if (_rng() % 2 == 0) {
            const auto site = _sites.next();
            delta.ops.push_back(site.remove);
            _revert = site.add;
        } else {
            const auto link = _links.next();
            delta.ops.push_back(link_state(link, false));
            _revert = link_state(link, true);
        }
        return delta;
    }

    /// Whether the delta last returned reverted an edit, so the network is
    /// back in its loaded state.
    [[nodiscard]] bool back_to_loaded() const { return !_revert; }

private:
    Passes<RuleSite> _sites;
    Passes<NamePair> _links;
    std::mt19937_64 _rng;
    std::optional<DeltaOp> _revert;
};

struct Phase {
    std::vector<double> delta_ms, query_ms;
    /// Samples of delta_ms and query_ms, and delta time, up to the end of
    /// the last complete session.
    std::size_t complete_deltas = 0, complete_queries = 0;
    double complete_seconds = 0.0;
    std::size_t sessions = 0;
    std::vector<double> session_peak_mb; ///< peak resident memory of the first sessions
    std::map<std::string, std::size_t> paths; ///< watched answers by reuse tier
    double delta_seconds = 0.0; ///< summed delta turnarounds
    std::size_t cells = 0, inconclusive = 0, answers = 0;
    double sweep_seconds = 0.0;
    /// Delta turnarounds of the traced and the untraced edit/revert pairs.
    double traced_ms = 0.0, plain_ms = 0.0;
    std::size_t traced = 0, plain = 0;
};

/// Reset the process's resident-memory high-water mark (VmHWM) to its
/// current resident size (Linux /proc/PID/clear_refs, value 5); false when
/// the kernel does not allow it.
bool reset_peak_rss() {
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5";
    clear_refs.flush();
    return static_cast<bool>(clear_refs);
}

class Churn {
public:
    Churn(const Args& args, RunResult& run) : _run(run) {
        _table = load_expected(expected_path(args, "default"));
        const auto net = aw::synthesis::make_nordunet_like(k_default_chains, k_synth_seed);
        _docs = {aw::io::write_topology_xml(net.network.topology, net.network.name),
                 aw::io::write_routing_xml(net.network), net.network.routing.rule_count()};
        std::vector<NamePair> links;
        for (const auto& scenario : aw::verify::make_single_failure_scenarios(net.network))
            if (!scenario.failed_links.empty()) links.push_back(scenario.failed_links.front());
        _deltas = std::make_unique<DeltaSequence>(collect_sites(net.network), links, args.seed);

        // Each sweep takes the next pairs and links of seeded passes.
        std::vector<NamePair> pairs;
        for (const auto& [source, target] : net.lsp_pairs)
            pairs.emplace_back(net.network.topology.router_name(source),
                               net.network.topology.router_name(target));
        _sweep_pairs = std::make_unique<Passes<NamePair>>(std::move(pairs), args.seed + 3);
        _sweep_links = std::make_unique<Passes<NamePair>>(std::move(links), args.seed + 4);
        _rng.seed(args.seed + 7);

        _trace = args.trace;
        _spec.engine = "dual";
        _spec.reduction = 2;
        _spec.trace = true;
        _spec.witnesses = 1;
        _spec.max_iterations = 0;
        _spec.translation = "auto";
        _spec.solver_threads = "1";
        for (const auto& entry : _table)
            if (entry.group == "table1" && !is_stress(entry.text))
                _watch.push_back(&entry);
        run.config.emplace_back("network", "nordunet-like chains=1000 synth_seed=" +
                                               std::to_string(k_synth_seed) +
                                               " rules=" + std::to_string(_docs.rules));
        run.config.emplace_back("watch_list", std::to_string(_watch.size()) + " Table-1 queries, dual");
        run.config.emplace_back("session", std::to_string(k_session_deltas) +
                                               " deltas on a freshly loaded Reverifier");
        run.config.emplace_back("sweep", "every " + std::to_string(k_sweep_every) + " deltas: " +
                                             std::to_string(k_sweep_pairs) + " pairs x k{0,1} x (baseline + " +
                                             std::to_string(k_sweep_scenarios) + " link failures), jobs=" +
                                             std::to_string(k_sweep_jobs));
    }

    /// The loop.  With `trace` set, every other edit/revert pair is traced,
    /// so traced and untraced deltas sample the same mix.
    Phase run_for(double seconds, bool trace) {
        Phase phase;
        const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(seconds));
        while (Clock::now() < deadline) {
            if (_deltas_applied % k_session_deltas == 0) start_session();
            const bool traced = trace && (_deltas_applied / 2) % 2 == 1;
            const auto timed = phase.delta_ms.size();
            step(phase, traced ? &_run : nullptr);
            if (phase.delta_ms.size() > timed) {
                (traced ? phase.traced_ms : phase.plain_ms) += phase.delta_ms.back();
                ++(traced ? phase.traced : phase.plain);
            }
            if (++_deltas_applied % k_sweep_every == 0) sweep(phase, trace ? &_run : nullptr);
            if (_deltas_applied % k_session_deltas == 0) end_session(phase);
        }
        return phase;
    }

    /// Set-up times so far, one per session.
    [[nodiscard]] const std::vector<double>& setups() const { return _setups; }
    /// Whether every session started with its peak RSS reset.
    [[nodiscard]] bool peak_reset() const { return _peak_reset; }

private:
    void end_session(Phase& phase) {
        phase.complete_deltas = phase.delta_ms.size();
        phase.complete_queries = phase.query_ms.size();
        phase.complete_seconds = phase.delta_seconds;
        if (++phase.sessions <= k_rss_sessions)
            phase.session_peak_mb.push_back(static_cast<double>(aw::telemetry::peak_rss_kb()) / 1024.0);
    }

    /// Set-up, timed: the documents to a loaded network in a fresh
    /// Reverifier.  Its generation-0 answers (cold, untimed) are checked
    /// against the references.
    void start_session() {
        _reverifier.reset();
        if (!reset_peak_rss()) _peak_reset = false;
        const auto start = Clock::now();
        auto network = load_network(_docs, _trace ? &_run : nullptr);
        _reverifier = std::make_unique<aw::delta::Reverifier>(
            std::make_shared<const aw::Network>(std::move(network)));
        _setups.push_back(seconds_since(start));
        const auto loaded = _reverifier->network();
        for (const auto* entry : _watch) {
            ++_run.attempted;
            try {
                const auto outcome = _reverifier->verify(entry->text, _spec);
                const auto problem =
                    check_answer(*loaded, aw::query::parse_query(entry->text, *loaded),
                                 outcome.result, entry->answer);
                if (!problem.empty()) _run.fail(problem);
            } catch (const std::exception& error) {
                _run.fail(entry->text + ": " + error.what());
            }
        }
    }

    void step(Phase& phase, RunResult* trace) {
        const auto delta = _deltas->next();
        std::vector<aw::delta::Reverifier::Outcome> outcomes;
        std::vector<double> query_ms;
        const auto start = Clock::now();
        try {
            _reverifier->apply(delta);
            const auto applied = Clock::now();
            const auto snapshot = _reverifier->network();
            for (const auto* entry : _watch) {
                const auto asked = Clock::now();
                outcomes.push_back(_reverifier->verify(entry->text, _spec));
                const auto verified = Clock::now();
                const auto json = aw::io::result_to_json(*snapshot, entry->text, outcomes.back().result);
                const auto encoded = Clock::now();
                query_ms.push_back(1e3 * std::chrono::duration<double>(encoded - asked).count());
                if (trace != nullptr) {
                    trace->span("delta.reverify", std::chrono::duration<double>(verified - asked).count());
                    trace->span("io.encode", std::chrono::duration<double>(encoded - verified).count());
                }
            }
            if (trace != nullptr) trace->span("delta.apply", std::chrono::duration<double>(applied - start).count());
        } catch (const std::exception& error) {
            _run.attempted += _watch.size();
            _run.fail(std::string("delta step: ") + error.what());
            return;
        }
        const double seconds = seconds_since(start);
        phase.delta_ms.push_back(1e3 * seconds);
        phase.delta_seconds += seconds;
        phase.query_ms.insert(phase.query_ms.end(), query_ms.begin(), query_ms.end());
        if (trace != nullptr) trace->span("delta", seconds);

        // Checks, outside the timed region.
        const auto snapshot = _reverifier->network();
        const bool cold_check = _deltas_applied % k_cold_check_every == 0;
        const bool loaded = _deltas->back_to_loaded();
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const auto& text = _watch[i]->text;
            const auto& outcome = outcomes[i];
            ++_run.attempted;
            ++phase.answers;
            ++phase.paths[std::string(aw::delta::to_string(outcome.path))];
            if (outcome.result.answer == aw::verify::Answer::Inconclusive) ++phase.inconclusive;
            if (trace != nullptr && outcome.path != aw::delta::VerifyPath::Reused)
                absorb_stats(outcome.result, _run);
            const auto query = aw::query::parse_query(text, *snapshot);
            auto problem = check_answer(*snapshot, query, outcome.result,
                                        loaded ? _watch[i]->answer : std::string());
            if (problem.empty() && cold_check) {
                const auto cold = aw::verify::verify(*snapshot, query,
                                                     pinned_options(aw::verify::EngineKind::Dual));
                if (canonical_json(*snapshot, text, cold) != canonical_json(*snapshot, text, outcome.result))
                    problem = "generation " + std::to_string(outcome.generation) +
                              " differs from a cold verify: " + text;
            }
            if (!problem.empty()) _run.fail(problem);
        }
    }

    void sweep(Phase& phase, RunResult* trace) {
        const auto snapshot = _reverifier->network();
        aw::verify::SweepSpec spec;
        spec.query_template = "<ip> [.#{src}] .* [{dst}#.] <ip> {k}";
        spec.failure_budgets = {0, 1};
        for (std::size_t p = 0; p < k_sweep_pairs; ++p) spec.endpoint_pairs.push_back(_sweep_pairs->next());
        spec.scenarios.push_back({"baseline", {}});
        for (std::size_t s = 0; s < k_sweep_scenarios; ++s)
            spec.scenarios.push_back({"", {_sweep_links->next()}});
        const auto start = Clock::now();
        const auto result = aw::verify::run_sweep(*snapshot, spec,
                                                  pinned_options(aw::verify::EngineKind::Dual), k_sweep_jobs);
        const double seconds = seconds_since(start);
        phase.sweep_seconds += seconds;
        phase.cells += result.cells.size();
        if (trace != nullptr) {
            trace->span("sweep", seconds);
            for (const auto& cell : result.cells) trace->span("sweep.cell", cell.seconds);
            _run.counts["sweep.runs"] += 1;
            _run.counts["sweep.cells"] += static_cast<double>(result.stats.cells);
            _run.counts["sweep.shared"] += static_cast<double>(result.stats.shared_saturations);
            _run.counts["sweep.cold"] += static_cast<double>(result.stats.cold_saturations);
        }
        // Checks: every cell answered; two seeded cells equal a cold verify
        // on their scenario network, and their YES witnesses replay there.
        for (const auto& cell : result.cells) {
            ++_run.attempted;
            if (!cell.error.empty()) _run.fail("sweep cell " + cell.query_text + ": " + cell.error);
        }
        for (int sample = 0; sample < 2 && !result.cells.empty(); ++sample) {
            const auto& cell = result.cells[_rng() % result.cells.size()];
            try {
                aw::delta::NetworkDelta down;
                for (const auto& link : spec.scenarios[cell.scenario].failed_links)
                    down.ops.push_back(link_state(link, false));
                const auto scenario = aw::delta::apply_delta(*snapshot, down).network;
                const auto query = aw::query::parse_query(cell.query_text, *scenario);
                const auto cold = aw::verify::verify(*scenario, query,
                                                     pinned_options(aw::verify::EngineKind::Dual));
                auto problem = check_answer(*scenario, query, cell.result, "");
                if (problem.empty() && canonical_json(*scenario, cell.query_text, cold) !=
                                           canonical_json(*scenario, cell.query_text, cell.result))
                    problem = "sweep cell differs from a cold verify: " + cell.query_text;
                if (!problem.empty()) _run.fail(problem);
            } catch (const std::exception& error) {
                _run.fail("sweep cell check " + cell.query_text + ": " + error.what());
            }
        }
    }

    RunResult& _run;
    bool _trace = false;
    bool _peak_reset = true;
    Documents _docs;
    std::vector<ExpectedQuery> _table;
    std::unique_ptr<DeltaSequence> _deltas;
    std::vector<double> _setups; ///< one per session
    std::unique_ptr<aw::delta::Reverifier> _reverifier;
    aw::cli::VerifySpec _spec;
    std::vector<const ExpectedQuery*> _watch;
    std::unique_ptr<Passes<NamePair>> _sweep_pairs, _sweep_links;
    std::mt19937_64 _rng;
    std::size_t _deltas_applied = 0;
};

/// The first `count` values of `values`, or all of them when count is 0.
std::vector<double> prefix(const std::vector<double>& values, std::size_t count) {
    return count == 0 ? values
                      : std::vector<double>(values.begin(),
                                            values.begin() + static_cast<std::ptrdiff_t>(count));
}

void report(const Phase& phase, RunResult& run) {
    // Complete sessions only; a run too short for one reports what it has.
    const auto deltas = prefix(phase.delta_ms, phase.complete_deltas);
    const auto queries = prefix(phase.query_ms, phase.complete_queries);
    const double seconds = phase.complete_deltas ? phase.complete_seconds : phase.delta_seconds;
    run.metrics["query_p50_ms"] = quantile(queries, 0.5);
    run.metrics["query_p90_ms"] = quantile(queries, 0.9);
    run.metrics["queries_per_s"] = static_cast<double>(queries.size()) / seconds;
    run.metrics["delta_p50_ms"] = quantile(deltas, 0.5);
    run.metrics["delta_p90_ms"] = quantile(deltas, 0.9);
    run.metrics["sweep_cells_per_s"] =
        phase.sweep_seconds > 0 ? static_cast<double>(phase.cells) / phase.sweep_seconds : 0.0;
    if (!phase.session_peak_mb.empty()) run.metrics["peak_rss_mb"] = quantile(phase.session_peak_mb, 0.5);
    run.metrics["inconclusive_share"] =
        phase.answers ? static_cast<double>(phase.inconclusive) / static_cast<double>(phase.answers) : 0.0;
}

} // namespace

RunResult run_whatif_churn(const Args& args) {
    RunResult run;
    Churn churn(args, run);
    const auto phase = churn.run_for(args.seconds, args.trace);
    report(phase, run);
    run.metrics["setup_s"] = quantile(churn.setups(), 0.5);
    std::string tiers;
    for (const auto& [path, count] : phase.paths) tiers += path + "=" + std::to_string(count) + " ";
    run.config.emplace_back("watched_answers", tiers + "deltas=" + std::to_string(phase.delta_ms.size()) +
                                                   " complete_sessions=" + std::to_string(phase.sessions));
    std::string peaks;
    for (const auto mb : phase.session_peak_mb) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.1f ", mb);
        peaks += buffer;
    }
    run.config.emplace_back("session_peak_rss_mb",
                            (peaks.empty() ? "none (no session completed)" : peaks) +
                                (churn.peak_reset() ? "" : "(peaks not reset: /proc/self/clear_refs refused)"));
    if (!args.trace) return run;

    run.metrics["telemetry.overhead_share"] =
        (phase.traced_ms / static_cast<double>(phase.traced)) /
            (phase.plain_ms / static_cast<double>(phase.plain)) -
        1.0;
    for (const auto* path : {"reused", "warm", "cold"}) {
        const auto it = phase.paths.find(path);
        run.metrics[std::string("delta.") + path + "_share"] =
            it == phase.paths.end() ? 0.0
                                    : static_cast<double>(it->second) / static_cast<double>(phase.answers);
    }
    run.metrics["sweep.cell_ms"] = run.mean_ms("sweep.cell");
    const double cells = run.counts["sweep.cells"];
    run.metrics["sweep.shared_share"] = cells > 0 ? run.counts["sweep.shared"] / cells : 0.0;
    run.metrics["sweep.cold_saturations"] =
        run.counts["sweep.runs"] > 0 ? run.counts["sweep.cold"] / run.counts["sweep.runs"] : 0.0;
    return run;
}

} // namespace perfbench
