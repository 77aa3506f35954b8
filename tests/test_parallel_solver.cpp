// Sequential ≡ parallel equivalence battery for the sharded saturation
// solver: identical accepting sets and minimal weights at every thread
// count, replay-valid witnesses, deterministic schedules at a fixed count,
// and a pinned shard-assignment hash (see solver_shard_of).

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "pda_test_util.hpp"
#include "synthesis/dataplane.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/queries.hpp"
#include "verify/engine.hpp"
#include "verify/translation.hpp"

namespace aalwines::pda {
namespace {

using testutil::automaton_for_configs;
using testutil::brute_force_reachable;
using testutil::Config;
using testutil::exact_word;
using testutil::random_pda;

SolverOptions with_threads(std::size_t threads) {
    // Explicit count: overrides any AALWINES_SOLVER_THREADS the CI matrix
    // exports, so the baseline below really is the sequential engine.
    SolverOptions options;
    options.threads = threads;
    return options;
}

TEST(SolverShard, AssignmentIsPinned) {
    // Deterministic-seed contract: these values may only change together
    // with an intentional rebalancing of the owner hash.
    const unsigned at4[] = {0, 0, 3, 1, 2, 2, 1, 3};
    const unsigned at2[] = {0, 0, 1, 1, 0, 0, 1, 1};
    for (StateId s = 0; s < 8; ++s) {
        EXPECT_EQ(solver_shard_of(s, 4), at4[s]) << "state " << s;
        EXPECT_EQ(solver_shard_of(s, 2), at2[s]) << "state " << s;
    }
    EXPECT_EQ(solver_shard_of(12345, 8), 6u);
    EXPECT_EQ(solver_shard_of(0xFFFFFFFFu, 4), 1u);
    for (StateId s = 0; s < 64; ++s) EXPECT_EQ(solver_shard_of(s, 1), 0u);
}

class ParallelRandom : public ::testing::TestWithParam<int> {};

/// post*: every thread count accepts exactly the configurations the
/// sequential engine accepts, at the same minimal weight, with witnesses
/// that replay to the probed configuration.
TEST_P(ParallelRandom, PostStarMatchesSequential) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
    const Symbol alphabet = 3;
    const auto pda = random_pda(rng, 6, alphabet, 14, true);
    const std::vector<Config> initial{{0, {0, 1}}};

    auto sequential = automaton_for_configs(pda, initial);
    post_star(sequential, with_threads(1));

    // Probe every configuration up to depth 3 plus everything brute-force
    // reachable (covers configs the automata must *reject* too).
    std::vector<Config> probes;
    for (StateId s = 0; s < pda.state_count(); ++s)
        for (Symbol a = 0; a < alphabet; ++a) {
            probes.push_back({s, {a}});
            for (Symbol b = 0; b < alphabet; ++b) probes.push_back({s, {a, b}});
        }
    for (const auto& config : brute_force_reachable(pda, initial, 48, 4))
        probes.push_back(config);

    for (const std::size_t threads : {2u, 8u}) {
        auto parallel = automaton_for_configs(pda, initial);
        const auto stats = post_star(parallel, with_threads(threads));
        EXPECT_EQ(stats.threads_used, threads);
        EXPECT_EQ(stats.shard_pops.size(), threads);
        // The balance gauge must be populated whenever the sharded loop
        // popped anything: max/mean per-shard pops is ≥ 1.0 by construction
        // and at most the thread count.
        std::size_t total_pops = 0;
        for (const auto pops : stats.shard_pops) total_pops += pops;
        if (total_pops > 0) {
            EXPECT_GE(stats.shard_imbalance, 1.0)
                << "seed " << GetParam() << " threads " << threads;
            EXPECT_LE(stats.shard_imbalance, static_cast<double>(threads))
                << "seed " << GetParam() << " threads " << threads;
        }
        std::size_t mismatches = 0;
        for (const auto& [state, stack] : probes) {
            const StateId starts[] = {state};
            const auto nfa = exact_word(stack);
            const auto seq = find_accepted(sequential, starts, nfa, alphabet);
            const auto par = find_accepted(parallel, starts, nfa, alphabet);
            if (seq.has_value() != par.has_value() ||
                (seq && par && !(seq->weight == par->weight)))
                ++mismatches;
            if (!par) continue;
            const auto witness = unroll_post_star(parallel, *par);
            ASSERT_TRUE(witness.has_value()) << "seed " << GetParam();
            const auto replay = replay_witness(pda, *witness);
            ASSERT_TRUE(replay.has_value())
                << "seed " << GetParam() << " threads " << threads;
            EXPECT_EQ(replay->back().first, state);
            EXPECT_EQ(replay->back().second, stack);
        }
        EXPECT_EQ(mismatches, 0u) << "seed " << GetParam() << " threads " << threads;
    }
}

/// pre*: same equivalence, probing source configurations against a panel of
/// saturated target automata.
TEST_P(ParallelRandom, PreStarMatchesSequential) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 24593 + 11);
    const Symbol alphabet = 3;
    const auto pda = random_pda(rng, 5, alphabet, 12, true);
    const std::vector<Config> targets{{1, {0}}, {2, {1, 0}}, {0, {2, 2}}};

    for (const auto& target : targets) {
        auto sequential = automaton_for_configs(pda, {target});
        pre_star(sequential, with_threads(1));
        auto parallel = automaton_for_configs(pda, {target});
        const auto stats = pre_star(parallel, with_threads(4));
        EXPECT_EQ(stats.threads_used, 4u);

        std::size_t mismatches = 0;
        for (StateId s = 0; s < pda.state_count(); ++s)
            for (Symbol a = 0; a < alphabet; ++a)
                for (Symbol b = 0; b < alphabet; ++b) {
                    const StateId starts[] = {s};
                    const auto nfa = exact_word({a, b});
                    const auto seq = find_accepted(sequential, starts, nfa, alphabet);
                    const auto par = find_accepted(parallel, starts, nfa, alphabet);
                    if (seq.has_value() != par.has_value() ||
                        (seq && par && !(seq->weight == par->weight)))
                        ++mismatches;
                }
        EXPECT_EQ(mismatches, 0u)
            << "seed " << GetParam() << " target state " << target.first;
    }
}

/// At a fixed thread count the schedule is deterministic: repeated runs
/// produce byte-identical automata (same ids, weights, provenance).
TEST_P(ParallelRandom, FixedThreadCountIsDeterministic) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 40961 + 7);
    const auto pda = random_pda(rng, 6, 3, 14, true);
    const std::vector<Config> initial{{0, {0, 1}}};

    const auto saturate = [&] {
        auto aut = automaton_for_configs(pda, initial);
        post_star(aut, with_threads(3));
        return aut;
    };
    const auto first = saturate();
    const auto second = saturate();
    ASSERT_EQ(first.transition_count(), second.transition_count());
    ASSERT_EQ(first.epsilon_count(), second.epsilon_count());
    for (TransId id = 0; id < first.transition_count(); ++id) {
        const auto& a = first.transition(id);
        const auto& b = second.transition(id);
        EXPECT_EQ(a.from, b.from) << id;
        EXPECT_EQ(a.to, b.to) << id;
        EXPECT_TRUE(a.label == b.label) << id;
        EXPECT_TRUE(a.weight == b.weight) << id;
        EXPECT_EQ(a.prov.kind, b.prov.kind) << id;
        EXPECT_EQ(a.prov.rule, b.prov.rule) << id;
    }
    for (std::uint32_t id = 0; id < first.epsilon_count(); ++id) {
        const auto& a = first.epsilon(id);
        const auto& b = second.epsilon(id);
        EXPECT_EQ(a.from, b.from) << id;
        EXPECT_EQ(a.to, b.to) << id;
        EXPECT_TRUE(a.weight == b.weight) << id;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandom, ::testing::Range(0, 12));

/// The iteration cap stays exact under sharded drains: never exceeded, and
/// truncation is reported whenever work remains.
TEST(ParallelSolver, IterationCapIsExact) {
    Pda pda(2);
    const auto p0 = pda.add_state();
    pda.add_rule({p0, p0, PreSpec::any(), Rule::OpKind::Push, 1, k_same_symbol,
                  Weight::one(), 0});
    const auto full = [&] {
        auto aut = automaton_for_configs(pda, {{p0, {0}}});
        return post_star(aut, with_threads(4)).iterations;
    }();
    ASSERT_GE(full, 3u);
    for (const std::size_t cap : {std::size_t{1}, std::size_t{2}, full - 1}) {
        auto aut = automaton_for_configs(pda, {{p0, {0}}});
        SolverOptions options = with_threads(4);
        options.max_iterations = cap;
        const auto stats = post_star(aut, options);
        EXPECT_TRUE(stats.truncated) << cap;
        EXPECT_LE(stats.iterations, cap);
    }
}

} // namespace
} // namespace aalwines::pda

namespace aalwines::verify {
namespace {

/// End-to-end equivalence on the paper's running example and a synthesized
/// operator network: answers and weights must be identical at 1, 2 and 8
/// solver threads (witness tie-breaks may differ; feasibility may not).
class ParallelVerify : public ::testing::Test {
protected:
    static VerifyOptions with_threads(std::size_t threads) {
        VerifyOptions options;
        options.solver_threads = threads;
        return options;
    }

    void expect_equivalent(const Network& net, const std::string& text,
                           const WeightExpr* weights = nullptr,
                           bool expect_parallel = true) {
        const auto query = query::parse_query(text, net);
        std::optional<VerifyResult> baseline;
        for (const std::size_t threads : {1u, 2u, 8u}) {
            auto options = with_threads(threads);
            if (weights != nullptr) {
                options.engine = EngineKind::Weighted;
                options.weights = weights;
            }
            const auto result = verify(net, query, options);
            // Multi-component weight vectors are bucket-ineligible, so the
            // solver falls back to sequential regardless of the request.
            EXPECT_EQ(result.stats.over.solver_threads,
                      expect_parallel ? threads : 1u)
                << text;
            if (result.trace) {
                const auto feasibility =
                    check_feasibility(net, *result.trace, query.max_failures);
                EXPECT_TRUE(feasibility.feasible)
                    << text << " threads " << threads << ": " << feasibility.reason;
            }
            if (!baseline) {
                baseline = result;
                continue;
            }
            EXPECT_EQ(result.answer, baseline->answer) << text << " @" << threads;
            EXPECT_EQ(result.weight, baseline->weight) << text << " @" << threads;
            EXPECT_EQ(result.trace.has_value(), baseline->trace.has_value())
                << text << " @" << threads;
        }
    }
};

TEST_F(ParallelVerify, Figure1QueriesMatchAcrossThreadCounts) {
    const auto net = synthesis::make_figure1_network();
    for (const auto* text : {
             "<ip> [.#v0] .* [v3#.] <ip> 0",
             "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
             "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
             "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
             "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
         })
        expect_equivalent(net, text);
}

TEST_F(ParallelVerify, Figure1WeightedMinimumMatchesAcrossThreadCounts) {
    const auto net = synthesis::make_figure1_network();
    // Scalar objective: bucket-eligible, so the sharded solver really runs.
    const auto hops = parse_weight_expression("hops");
    expect_equivalent(net, "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", &hops);
    // Lexicographic vector objective: gracefully sequential at any request.
    const auto vector = parse_weight_expression("hops, failures + 3*tunnels");
    expect_equivalent(net, "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
                      &vector, /*expect_parallel=*/false);
}

TEST_F(ParallelVerify, NordunetBatteryMatchesAcrossThreadCounts) {
    auto synth = synthesis::make_nordunet_like();
    synthesis::QueryBatteryOptions battery_options;
    battery_options.count = 8;
    const auto battery = synthesis::make_query_battery(synth, battery_options);
    ASSERT_FALSE(battery.empty());
    for (const auto& text : battery) expect_equivalent(synth.network, text);
}

/// Two threads run their first query on one fresh snapshot at once: its
/// translation index is built exactly once — both translations read the
/// very object the snapshot memoizes — and without a data race (the tsan
/// CI job runs this test).  Answers match a single-threaded run.
TEST(TranslationIndexConcurrency, TwoFirstQueriesBuildOneIndex) {
    const auto synth = synthesis::make_nordunet_like(40, 1);
    const auto& net = synth.network;
    const auto queries = synthesis::make_table1_queries(synth);
    ASSERT_GE(queries.size(), 2u);
    const TranslationIndex* seen[2] = {nullptr, nullptr};
    Answer answers[2] = {Answer::Inconclusive, Answer::Inconclusive};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t)
        threads.emplace_back([&, t] {
            const auto query = query::parse_query(queries[t], net);
            TranslationOptions options;
            options.lazy = true;
            Translation translation(net, query, options);
            auto automaton = translation.make_initial_automaton();
            (void)pda::post_star(automaton);
            seen[t] = &translation.index();
            answers[t] = verify(net, query, {}).answer;
        });
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(seen[0], TranslationIndex::of(net).get());

    const auto fresh = synthesis::make_nordunet_like(40, 1);
    for (std::size_t t = 0; t < 2; ++t)
        EXPECT_EQ(answers[t],
                  verify(fresh.network, query::parse_query(queries[t], fresh.network), {})
                      .answer)
            << queries[t];
}

} // namespace
} // namespace aalwines::verify
