// paper-oneshot: the NORDUnet-like network at the paper's scale (26000
// service chains, ~253k rules, ~72 MB route.xml), handed over as XML.  One
// client runs passes of the six Table-1 queries under the dual engine and
// under the weighted engine minimising failures, then a battery under dual:
// one query of every (shape, k) bucket of the reference table (the stress
// shape at k = 1 and 2 among them).  A round is as many passes as a bucket
// has candidates, so each candidate runs once per round; the seed picks the
// candidate each bucket starts with and the battery order of every pass.
// Whole rounds repeat until the run's time is up, so every run measures the
// same mix.

#include <random>
#include <set>

#include "bench.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace {

struct Job {
    const ExpectedQuery* reference;
    aw::verify::EngineKind engine;
};

struct Round {
    double seconds = 0.0;           ///< production-path time summed over the round
    std::vector<double> latencies;  ///< per query, ms
    std::vector<bool> stress;       ///< per query: the stress shape
    std::size_t inconclusive = 0;
    /// Production-path time of the traced and the untraced queries.
    double traced_seconds = 0.0, plain_seconds = 0.0;
    std::size_t traced = 0, plain = 0;
};

/// One round.  With `trace` set, every other query is traced, starting with
/// the query at position `parity`, so two consecutive rounds trace every
/// query once and leave it untraced once.
Round run_round(const aw::Network& network, const std::vector<std::vector<Job>>& round,
                const aw::WeightExpr& failures, RunResult& run, RunResult* trace,
                std::size_t parity, std::set<std::string>& answered_before) {
    Round out;
    std::size_t position = 0;
    for (const auto& jobs : round)
    for (const auto& job : jobs) {
        const auto* weights =
            job.engine == aw::verify::EngineKind::Weighted ? &failures : nullptr;
        const auto options = pinned_options(job.engine, weights);
        const bool traced = trace != nullptr && position++ % 2 == parity;
        const auto answered =
            answer_query(network, job.reference->text, options, traced ? trace : nullptr);
        ++run.attempted;
        if (!answered.ok) {
            run.fail(answered.error);
            continue;
        }
        // The first encode of a query in the process, kept apart from the
        // steady state (README.md, "Findings").
        const bool first = answered_before
                               .insert(job.reference->text + '/' +
                                       std::string(aw::verify::to_string(job.engine)))
                               .second;
        if (traced && first) run.span("io.encode_first", answered.encode_seconds);
        (traced ? out.traced_seconds : out.plain_seconds) += answered.seconds;
        ++(traced ? out.traced : out.plain);
        out.seconds += answered.seconds;
        out.latencies.push_back(1e3 * answered.seconds);
        out.stress.push_back(is_stress(job.reference->text));
        if (answered.result.answer == aw::verify::Answer::Inconclusive) ++out.inconclusive;
        const auto problem = check_answer(network, answered.query, answered.result,
                                          job.reference->answer, weights);
        if (!problem.empty() || answered.json.empty())
            run.fail(problem.empty() ? "empty JSON answer: " + job.reference->text : problem);
    }
    return out;
}

} // namespace

RunResult run_paper_oneshot(const Args& args) {
    RunResult run;
    const auto table = load_expected(expected_path(args, "paper"));

    std::vector<Job> table1;
    std::map<std::string, std::vector<const ExpectedQuery*>> buckets;
    std::size_t passes_per_round = 1;
    for (const auto engine : {aw::verify::EngineKind::Dual, aw::verify::EngineKind::Weighted})
        for (const auto& entry : table)
            if (entry.group == "table1") table1.push_back({&entry, engine});
    for (const auto& entry : table) {
        if (entry.group == "table1") continue;
        auto& bucket = buckets[entry.group + " k=" + std::to_string(failure_budget(entry.text))];
        bucket.push_back(&entry);
        passes_per_round = std::max(passes_per_round, bucket.size());
    }
    std::mt19937_64 rng(args.seed);
    std::vector<std::size_t> first(buckets.size());
    for (auto& offset : first) offset = rng();
    std::vector<std::vector<Job>> round;
    for (std::size_t pass = 0; pass < passes_per_round; ++pass) {
        auto jobs = table1;
        std::size_t b = 0;
        for (const auto& [bucket, candidates] : buckets)
            jobs.push_back({candidates[(first[b++] + pass) % candidates.size()],
                            aw::verify::EngineKind::Dual});
        std::shuffle(jobs.begin() + static_cast<std::ptrdiff_t>(table1.size()), jobs.end(), rng);
        round.push_back(std::move(jobs));
    }

    // Set-up: XML documents to a loaded network, three times; the median
    // is setup_s.  Synthesis and XML writing only make the inputs.
    const auto docs = make_documents(k_paper_chains);
    std::vector<double> setups;
    aw::Network network;
    for (int i = 0; i < 3; ++i) {
        network = aw::Network{};
        const auto start = Clock::now();
        network = load_network(docs, args.trace ? &run : nullptr);
        setups.push_back(seconds_since(start));
    }
    run.metrics["setup_s"] = quantile(setups, 0.5);
    run.config.emplace_back("network", "nordunet-like chains=26000 synth_seed=1 rules=" +
                                           std::to_string(docs.rules) +
                                           " route_xml_bytes=" + std::to_string(docs.routing.size()));
    run.config.emplace_back("round", std::to_string(round.size()) + " passes of " +
                                         std::to_string(round.front().size()) +
                                         " queries (table1 x dual+weighted failures, battery x dual)");
    run.config.emplace_back("verify", "reduction=2 translation=auto(lazy) solver_threads=1 witnesses=1");
    // Why the set-up goes through the library: the daemon's default body
    // limit is below the size of route.xml alone.
    run.config.emplace_back("daemon_default_max_body_bytes",
                            std::to_string(aw::server::ServerConfig{}.max_body_bytes));

    const auto failures = aw::weight_of(aw::Quantity::Failures);
    std::set<std::string> answered_before;
    const auto deadline_after = [](double seconds) {
        return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    };
    if (!args.trace) {
        std::vector<double> latencies;
        std::vector<bool> stress;
        double busy = 0.0;
        std::size_t inconclusive = 0;
        std::string round_seconds;
        const auto deadline = deadline_after(args.seconds);
        do {
            const auto done = run_round(network, round, failures, run, nullptr, 0, answered_before);
            round_seconds += std::to_string(done.seconds) + " ";
            latencies.insert(latencies.end(), done.latencies.begin(), done.latencies.end());
            stress.insert(stress.end(), done.stress.begin(), done.stress.end());
            busy += done.seconds;
            inconclusive += done.inconclusive;
        } while (Clock::now() < deadline);
        run.metrics["query_p50_ms"] = quantile(latencies, 0.5);
        run.metrics["query_p90_ms"] = quantile(latencies, 0.9);
        std::size_t tail = 0, stress_tail = 0;
        for (std::size_t i = 0; i < latencies.size(); ++i) {
            if (latencies[i] < run.metrics["query_p90_ms"]) continue;
            ++tail;
            if (stress[i]) ++stress_tail;
        }
        run.config.emplace_back("p90_tail", std::to_string(stress_tail) + " of the " +
                                                std::to_string(tail) +
                                                " queries at or above query_p90_ms are the stress shape");
        run.metrics["queries_per_s"] = static_cast<double>(latencies.size()) / busy;
        run.config.emplace_back("round_seconds", round_seconds);
        run.metrics["inconclusive_share"] =
            static_cast<double>(inconclusive) / static_cast<double>(latencies.size());
        return run;
    }

    // Traced: rounds alternate which half of the queries is traced; the
    // traced and untraced production-path times of the same queries give
    // the tracing overhead.
    double traced = 0.0, plain = 0.0;
    std::size_t traced_count = 0, plain_count = 0, rounds = 0;
    const auto deadline = deadline_after(args.seconds);
    do {
        const auto done = run_round(network, round, failures, run, &run, rounds++ % 2, answered_before);
        traced += done.traced_seconds;
        plain += done.plain_seconds;
        traced_count += done.traced;
        plain_count += done.plain;
    } while (Clock::now() < deadline);
    run.metrics["telemetry.overhead_share"] =
        (traced / static_cast<double>(traced_count)) / (plain / static_cast<double>(plain_count)) -
        1.0;
    run.metrics["inconclusive_share"] =
        run.counts["verify.inconclusive"] / static_cast<double>(traced_count);
    return run;
}

} // namespace perfbench
