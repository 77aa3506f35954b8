#include "verify/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "delta/delta.hpp"
#include "pda/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "util/errors.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void replace_all(std::string& text, std::string_view placeholder,
                 const std::string& value) {
    for (std::size_t at = text.find(placeholder); at != std::string::npos;
         at = text.find(placeholder, at + value.size()))
        text.replace(at, placeholder.size(), value);
}

/// One scenario's snapshot plus which links it flipped relative to the base
/// network (sorted link ids) — shared read-only by every chain.
struct ScenarioState {
    std::shared_ptr<const Network> network;
    std::vector<LinkId> flips;
};

std::vector<ScenarioState> build_scenarios(const Network& base,
                                           const std::vector<SweepScenario>& scenarios) {
    std::vector<ScenarioState> states;
    states.reserve(scenarios.size());
    for (const auto& scenario : scenarios) {
        ScenarioState state;
        if (scenario.failed_links.empty()) {
            // Baseline: alias the caller's network, nothing to copy.
            state.network = std::shared_ptr<const Network>(
                std::shared_ptr<const Network>{}, &base);
        } else {
            delta::NetworkDelta delta;
            for (const auto& [router, interface] : scenario.failed_links) {
                delta::DeltaOp op;
                op.kind = delta::DeltaOp::Kind::LinkState;
                op.router = router;
                op.out_interface = interface;
                op.up = false;
                delta.ops.push_back(std::move(op));
            }
            auto applied = delta::apply_delta(base, delta); // model_error on bad names
            state.network = std::move(applied.network);
            // state_links holds exactly the links whose up/down state
            // differs from the base (already-down links do not flip).
            state.flips = std::move(applied.effects.state_links);
            std::sort(state.flips.begin(), state.flips.end());
        }
        states.push_back(std::move(state));
    }
    return states;
}

/// Links whose up/down state differs between two scenarios: each `flips`
/// set is relative to the same base, so the symmetric difference is exact.
std::vector<LinkId> toggled_between(const std::vector<LinkId>& a,
                                    const std::vector<LinkId>& b) {
    std::vector<LinkId> out;
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(out));
    return out;
}

} // namespace

std::string_view to_string(CellPath path) {
    switch (path) {
        case CellPath::Cold: return "cold";
        case CellPath::Warm: return "warm";
        case CellPath::Reused: return "reused";
    }
    return "?";
}

std::string instantiate_template(const std::string& query_template,
                                 const std::string& src, const std::string& dst,
                                 std::uint64_t failures) {
    std::string text = query_template;
    replace_all(text, "{src}", src);
    replace_all(text, "{dst}", dst);
    replace_all(text, "{k}", std::to_string(failures));
    return text;
}

std::vector<SweepScenario> make_single_failure_scenarios(const Network& network,
                                                         std::size_t count) {
    std::vector<SweepScenario> scenarios;
    scenarios.push_back({"baseline", {}});
    const auto& topology = network.topology;
    for (LinkId id = 0; id < topology.link_count(); ++id) {
        if (count != 0 && scenarios.size() > count) break;
        if (!topology.link_up(id)) continue; // already failed for free
        const auto& link = topology.link(id);
        SweepScenario scenario;
        scenario.name = topology.describe_link(id);
        scenario.failed_links.emplace_back(topology.router_name(link.source),
                                           topology.interface(link.source_interface).name);
        scenarios.push_back(std::move(scenario));
    }
    return scenarios;
}

SweepResult run_sweep(const Network& network, const SweepSpec& spec,
                      const VerifyOptions& options, std::size_t jobs) {
    AALWINES_SPAN("run_sweep");
    const auto sweep_start = Clock::now();
    if (spec.query_template.empty())
        throw model_error("sweep spec has no query template");

    // Collapse empty axes to one implicit element so the grid is never
    // empty and cell indexing stays uniform.
    const std::vector<std::pair<std::string, std::string>> one_pair{{"", ""}};
    const std::vector<std::uint64_t> one_budget{0};
    const std::vector<SweepScenario> one_scenario{{"baseline", {}}};
    const auto& pairs = spec.endpoint_pairs.empty() ? one_pair : spec.endpoint_pairs;
    const auto& budgets = spec.failure_budgets.empty() ? one_budget : spec.failure_budgets;
    const auto& scenarios = spec.scenarios.empty() ? one_scenario : spec.scenarios;

    // Scenario snapshots resolve up front (model_error on unknown names
    // before any verification runs) and are shared by every chain.  With
    // the base's translation index built first, every scenario snapshot
    // carries it over, recomputing only the rows its failed links reach.
    (void)TranslationIndex::of(network);
    const auto scenario_states = build_scenarios(network, scenarios);

    const std::size_t n_scenarios = scenarios.size();
    const std::size_t n_chains = pairs.size() * budgets.size();

    SweepResult sweep;
    sweep.cells.resize(n_chains * n_scenarios);
    for (std::size_t chain = 0; chain < n_chains; ++chain) {
        const std::size_t p = chain / budgets.size();
        const std::size_t b = chain % budgets.size();
        const auto text =
            instantiate_template(spec.query_template, pairs[p].first, pairs[p].second,
                                 budgets[b]);
        for (std::size_t s = 0; s < n_scenarios; ++s) {
            auto& cell = sweep.cells[chain * n_scenarios + s];
            cell.pair = p;
            cell.budget = b;
            cell.scenario = s;
            cell.query_text = text;
        }
    }

    // NFA tier: one compile per endpoint pair, raced for by that pair's
    // chains (call_once publishes the compile to every waiter; a throwing
    // compile leaves the flag unset, so the error surfaces per chain).
    std::vector<std::unique_ptr<std::once_flag>> nfa_once(pairs.size());
    for (auto& flag : nfa_once) flag = std::make_unique<std::once_flag>();
    std::vector<std::shared_ptr<const CompiledNfas>> pair_nfas(pairs.size());

    // Only the native post* engines take a translation cache, and with it
    // the frontier tier — the same gate as delta::Reverifier's warm path.
    const bool native = options.engine == EngineKind::Dual ||
                        options.engine == EngineKind::Weighted;

    if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = std::min(jobs, n_chains);

    // Concurrency contract (no mutex on purpose): `next` hands each worker
    // a distinct chain index via relaxed fetch_add, so every chain's cell
    // slots have exactly one writer; pair_nfas publication goes through
    // call_once.  The joins publish the cells; `network`, `options` and the
    // scenario states are read-only throughout.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        AALWINES_SPAN("sweep_worker");
        // Workspace tier: one solver workspace per worker, reused by every
        // cell the worker runs (worklist buckets, search arenas).
        pda::SolverWorkspace workspace;
        VerifyOptions cell_options = options;
        cell_options.workspace = &workspace;
        for (;;) {
            const auto chain = next.fetch_add(1, std::memory_order_relaxed);
            if (chain >= n_chains) return;
            const std::size_t p = chain / budgets.size();
            SweepCell* cells = &sweep.cells[chain * n_scenarios];

            query::Query query;
            try {
                // Parse once per chain against the base network: scenarios
                // share its topology and label table (link-state deltas
                // never add routers, links or labels), so every atom
                // resolves to the same ids as a per-scenario parse.
                query = query::parse_query(cells[0].query_text, network);
                std::call_once(*nfa_once[p], [&] {
                    pair_nfas[p] = std::make_shared<const CompiledNfas>(
                        compile_query_nfas(network, query));
                });
            } catch (const std::exception& error) {
                for (std::size_t s = 0; s < n_scenarios; ++s)
                    cells[s].error = error.what();
                continue;
            }
            const auto& nfas = pair_nfas[p];

            // Frontier tier state.  The live session chains scenario to
            // scenario (rebase keeps the untouched materialization warm),
            // but the *reuse* test compares each scenario against a frozen
            // footprint snapshot of the chain's first verified cell — the
            // anchor.  Anchoring matters: a single-failure battery diffs
            // one flipped link against the anchor instead of two against
            // its predecessor (the new failure plus the restored previous
            // one), so far more cells carry the anchor's answer over for
            // free, while warm cells still pay only the affected cone.
            std::unique_ptr<TranslationCache> cache;
            std::size_t based_on = 0; // scenario the live session sits on
            std::size_t anchor = 0;
            const VerifyResult* anchor_result = nullptr;
            LinkFootprint anchor_footprint;

            for (std::size_t s = 0; s < n_scenarios; ++s) {
                auto& cell = cells[s];
                const auto& scenario = scenario_states[s];
                const auto cell_start = Clock::now();
                try {
                    if (!native) {
                        cell.result = verify(*scenario.network, query, cell_options);
                        cell.path = CellPath::Cold;
                    } else if (anchor_result != nullptr &&
                               !anchor_footprint.touches(toggled_between(
                                   scenario_states[anchor].flips, scenario.flips))) {
                        // The diff to the anchor misses its materialized
                        // footprint and every initial-configuration
                        // candidate: the anchor's answer provably carries
                        // over without running anything — no session needed.
                        cell.result = *anchor_result;
                        cell.path = CellPath::Reused;
                    } else if (cache == nullptr) {
                        cache = std::make_unique<TranslationCache>(
                            *scenario.network, query, cell_options.weights, nfas);
                        cell.result =
                            verify(*scenario.network, query, cell_options, *cache);
                        cell.path = CellPath::Cold;
                        based_on = s;
                        if (anchor_result == nullptr) {
                            // Freeze the anchor's footprint now, while the
                            // session still holds exactly what this cell's
                            // saturations materialized (it stays valid
                            // across link-state flips — see LinkFootprint).
                            anchor = s;
                            anchor_result = &cell.result;
                            if (auto* over = cache->over_or_null())
                                over->add_to_footprint(anchor_footprint);
                            if (auto* under = cache->under_or_null())
                                under->add_to_footprint(anchor_footprint);
                        }
                    } else {
                        // Split exactly like delta::Reverifier: a link-state
                        // flip dirties the link's own entries *and* its role
                        // as an out-link (skipped rules, failure budget,
                        // initial-state membership).
                        const auto toggled = toggled_between(
                            scenario_states[based_on].flips, scenario.flips);
                        std::vector<bool> dirty(network.topology.link_count(), false);
                        for (const auto link : toggled) dirty[link] = true;
                        cache->rebase(*scenario.network, dirty, dirty);
                        cell.result =
                            verify(*scenario.network, query, cell_options, *cache);
                        cell.path = CellPath::Warm;
                        based_on = s;
                    }
                } catch (const std::exception& error) {
                    cell.error = error.what();
                    // No half-rebased session survives an error; the next
                    // scenario rebuilds cold from its own snapshot.  The
                    // anchor snapshot and result stay valid — they describe
                    // the anchor cell, not the live session.
                    cache.reset();
                }
                cell.seconds = seconds_since(cell_start);
            }
        }
    };

    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (std::size_t i = 0; i < jobs; ++i) threads.emplace_back(worker);
        for (auto& thread : threads) thread.join();
    }

    auto& stats = sweep.stats;
    stats.cells = sweep.cells.size();
    for (const auto& cell : sweep.cells) {
        if (!cell.error.empty()) {
            ++stats.errors;
            continue;
        }
        switch (cell.path) {
            case CellPath::Cold: ++stats.cold_saturations; break;
            case CellPath::Warm: ++stats.reused_frontiers; break;
            case CellPath::Reused: ++stats.shared_saturations; break;
        }
    }
    for (const auto& nfas : pair_nfas) stats.nfa_compiles += nfas != nullptr ? 1 : 0;
    stats.seconds = seconds_since(sweep_start);
    return sweep;
}

} // namespace aalwines::verify
