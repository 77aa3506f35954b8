#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "model/quantity.hpp"
#include "pda/solver.hpp"
#include "synthesis/dataplane.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/queries.hpp"
#include "verify/engine.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {
namespace {

class TranslationFixture : public ::testing::Test {
protected:
    Network net = synthesis::make_figure1_network();

    query::Query parse(const std::string& text) { return query::parse_query(text, net); }
};

TEST_F(TranslationFixture, ValidHeaderRegexMatchesH) {
    const auto nfa = nfa::Nfa::compile(valid_header_regex(net.labels));
    const auto ip1 = *net.labels.find(LabelType::Ip, "ip1");
    const auto s20 = *net.labels.find(LabelType::MplsBos, "20");
    const auto m30 = *net.labels.find(LabelType::Mpls, "30");
    // Top-first words.
    EXPECT_TRUE(nfa.accepts(std::vector<nfa::Symbol>{ip1}));
    EXPECT_TRUE(nfa.accepts(std::vector<nfa::Symbol>{s20, ip1}));
    EXPECT_TRUE(nfa.accepts(std::vector<nfa::Symbol>{m30, s20, ip1}));
    EXPECT_TRUE(nfa.accepts(std::vector<nfa::Symbol>{m30, m30, s20, ip1}));
    EXPECT_FALSE(nfa.accepts(std::vector<nfa::Symbol>{m30, ip1}));
    EXPECT_FALSE(nfa.accepts(std::vector<nfa::Symbol>{ip1, ip1}));
    EXPECT_FALSE(nfa.accepts(std::vector<nfa::Symbol>{s20, s20, ip1}));
    EXPECT_FALSE(nfa.accepts(std::vector<nfa::Symbol>{}));
}

TEST_F(TranslationFixture, BuildsControlStatesAndRules) {
    const auto query = parse("<ip> [.#v0] .* [v3#.] <ip> 0");
    Translation translation(net, query, {});
    EXPECT_GT(translation.pda().state_count(), 0u);
    EXPECT_GT(translation.pda().rule_count(), 0u);
    EXPECT_FALSE(translation.initial_states().empty());
    EXPECT_FALSE(translation.accepting_states().empty());
}

TEST_F(TranslationFixture, PostStarFindsWitnessTrace) {
    const auto query = parse("<ip> [.#v0] .* [v3#.] <ip> 0");
    Translation translation(net, query, {});
    auto aut = translation.make_initial_automaton();
    pda::post_star(aut);
    const auto accepted =
        pda::find_accepted(aut, translation.accepting_states(),
                           translation.final_header_nfa(),
                           static_cast<pda::Symbol>(net.labels.size()));
    ASSERT_TRUE(accepted.has_value());
    const auto witness = pda::unroll_post_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    const auto trace = translation.witness_to_trace(*witness);
    ASSERT_TRUE(trace.has_value());
    // The witness must be one of σ0 / σ1: 4 links, starting at e0 (id 0),
    // ending at e7 (id 7), feasible without failures.
    ASSERT_EQ(trace->size(), 4u);
    EXPECT_EQ(trace->entries.front().link, 0u);
    EXPECT_EQ(trace->entries.back().link, 7u);
    const auto feasibility = check_feasibility(net, *trace, 0);
    EXPECT_TRUE(feasibility.feasible) << feasibility.reason;
}

TEST_F(TranslationFixture, UnderApproximationBoundsFailures) {
    // k=0 under-approximation must not contain the failover trace σ2.
    const auto query = parse("<ip> [.#v0] [v0#v2] [v2#v4] [v4#v3] [v3#.] <ip> 0");
    TranslationOptions options;
    options.approximation = Approximation::Under;
    Translation translation(net, query, options);
    auto aut = translation.make_initial_automaton();
    pda::post_star(aut);
    EXPECT_FALSE(pda::find_accepted(aut, translation.accepting_states(),
                                    translation.final_header_nfa(),
                                    static_cast<pda::Symbol>(net.labels.size()))
                     .has_value());
}

TEST_F(TranslationFixture, UnderApproximationAdmitsWithBudget) {
    const auto query = parse("<ip> [.#v0] [v0#v2] [v2#v4] [v4#v3] [v3#.] <ip> 1");
    TranslationOptions options;
    options.approximation = Approximation::Under;
    Translation translation(net, query, options);
    auto aut = translation.make_initial_automaton();
    pda::post_star(aut);
    const auto accepted =
        pda::find_accepted(aut, translation.accepting_states(),
                           translation.final_header_nfa(),
                           static_cast<pda::Symbol>(net.labels.size()));
    ASSERT_TRUE(accepted.has_value());
    const auto witness = pda::unroll_post_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    const auto trace = translation.witness_to_trace(*witness);
    ASSERT_TRUE(trace.has_value());
    EXPECT_TRUE(check_feasibility(net, *trace, 1).feasible);
    EXPECT_EQ(trace->size(), 5u); // σ2
}

TEST_F(TranslationFixture, ReductionShrinksRuleSet) {
    // A very specific query: most forwarding entries cannot participate.
    const auto query = parse("<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0");
    Translation with(net, query, {});
    const auto before = with.pda().rule_count();
    const auto stats = with.reduce(2);
    EXPECT_EQ(stats.rules_before, before);
    EXPECT_LT(stats.rules_after, before);

    // Reduction must not change the verdict.
    auto aut = with.make_initial_automaton();
    pda::post_star(aut);
    EXPECT_TRUE(pda::find_accepted(aut, with.accepting_states(), with.final_header_nfa(),
                                   static_cast<pda::Symbol>(net.labels.size()))
                    .has_value());
}

TEST_F(TranslationFixture, WeightedTranslationReportsMinimum) {
    // φ4 with (Hops, Failures + 3*Tunnels): minimum witness is σ3 = (5, 0).
    const auto query = parse("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1");
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    TranslationOptions options;
    options.weights = &weights;
    Translation translation(net, query, options);
    auto aut = translation.make_initial_automaton();
    pda::post_star(aut);
    const auto accepted =
        pda::find_accepted(aut, translation.accepting_states(),
                           translation.final_header_nfa(),
                           static_cast<pda::Symbol>(net.labels.size()));
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->weight.components(), (std::vector<std::uint64_t>{5, 0}));
    const auto witness = pda::unroll_post_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    const auto trace = translation.witness_to_trace(*witness);
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(evaluate(net, *trace, weights), (std::vector<std::uint64_t>{5, 0}));
}

TEST_F(TranslationFixture, FinalAutomatonDrivesPreStar) {
    const auto query = parse("<ip> [.#v0] .* [v3#.] <ip> 0");
    Translation translation(net, query, {});
    auto aut = translation.make_final_automaton();
    pda::pre_star(aut);
    const auto accepted =
        pda::find_accepted(aut, translation.initial_states(),
                           translation.initial_header_nfa(),
                           static_cast<pda::Symbol>(net.labels.size()));
    ASSERT_TRUE(accepted.has_value());
    const auto witness = pda::unroll_pre_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    const auto trace = translation.witness_to_trace(*witness);
    ASSERT_TRUE(trace.has_value());
    EXPECT_TRUE(check_feasibility(net, *trace, 0).feasible);
}


/// Deep operation chains: pops reveal unknown symbols, so the translation
/// must branch per stratum mid-chain and still produce exact traces.
TEST(TranslationChains, MultiPopChainsVerifyEndToEnd) {
    Network net;
    net.name = "chains";
    auto& topology = net.topology;
    const auto a = topology.add_router("A");
    const auto b = topology.add_router("B");
    const auto c = topology.add_router("C");
    auto link = [&](RouterId s, std::string_view si, RouterId t, std::string_view ti) {
        return topology.add_link(s, topology.add_interface(s, si), t,
                                 topology.add_interface(t, ti));
    };
    const auto ab = link(a, "o", b, "i");
    const auto bc = link(b, "o", c, "i");
    auto& labels = net.labels;
    const auto ip1 = labels.add(LabelType::Ip, "ip1");
    const auto ip2 = labels.add(LabelType::Ip, "ip2");
    const auto s0 = labels.add(LabelType::MplsBos, "0");
    const auto m0 = labels.add(LabelType::Mpls, "m0");
    const auto m1 = labels.add(LabelType::Mpls, "m1");
    (void)ip1;
    (void)m1;
    // Terminate a two-level tunnel and rewrite the revealed IP in one rule:
    // pop (m0 off), pop (s0 off), swap(ip2).
    net.routing.add_rule(ab, m0, 1, bc, {Op::pop(), Op::pop(), Op::swap(ip2)});
    // And a deep push chain in the other direction of processing:
    // swap(m1) then two pushes (stack grows by two).
    net.routing.add_rule(ab, s0, 1, bc, {Op::swap(s0), Op::push(m0), Op::push(m1)});
    net.routing.validate(topology);

    {
        const auto q = query::parse_query("<m0 s0 ip> [A#B] [B#C] <ip2> 0", net);
        const auto result = verify(net, q, {});
        ASSERT_EQ(result.answer, Answer::Yes);
        ASSERT_TRUE(result.trace.has_value());
        EXPECT_EQ(result.trace->entries.back().header, (Header{ip2}));
    }
    {
        // The multi-pop rule must NOT fire when the stack is too shallow
        // for its rewrite to stay valid (pop pop on [s0 ip] pops the ip).
        const auto q = query::parse_query("<s0 ip> [A#B] [B#C] <ip2> 0", net);
        EXPECT_EQ(verify(net, q, {}).answer, Answer::No);
    }
    {
        const auto q =
            query::parse_query("<s0 ip> [A#B] [B#C] <m1 m0 s0 ip> 0", net);
        const auto result = verify(net, q, {});
        ASSERT_EQ(result.answer, Answer::Yes);
        ASSERT_TRUE(result.trace.has_value());
        EXPECT_EQ(result.trace->entries.back().header.size(), 4u);
    }
}

// ---------------------------------------------------------------------------
// Demand-driven (lazy) translation equivalence.

/// Figure 1 with links administratively down: e2 (an out-link of a
/// higher-priority group, so lower groups forward for free) and e5.
Network figure1_with_down_links() {
    auto net = synthesis::make_figure1_network();
    for (const auto& [router, interface] : {std::pair{"v0", "e2"}, std::pair{"v2", "e5"}})
        net.topology.set_link_state(
            *net.topology.out_link_through(*net.topology.find_router(router), interface),
            false);
    return net;
}

/// The index behind the lazy interior pool must be *exact*: the totals it
/// yields without any chain walk equal an eager build's, and after
/// materialize_all the lazy PDA has rule-for-rule and state-for-state the
/// same totals as the eager one (ids and order may differ), with the pool
/// fully consumed — no interior left over, none missing.  Over and Under,
/// k ∈ {0, 1, 2}, with and without administratively down links.
TEST_F(TranslationFixture, LazyMaterializeAllMatchesEagerTotals) {
    const std::vector<std::string> queries = {
        "<ip> [.#v0] .* [v3#.] <ip> 0",
        "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
        "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 2",
        "<ip> .* <ip> 1",
        "<ip> .* <ip> 2",
        "<mpls* smpls? ip> .* <mpls* smpls? ip> 1",
    };
    const auto with_down = figure1_with_down_links();
    for (const Network* network : std::initializer_list<const Network*>{&net, &with_down}) {
        for (const auto& text : queries) {
            const auto query = query::parse_query(text, *network);
            for (const auto approx : {Approximation::Over, Approximation::Under}) {
                TranslationOptions eager_opts;
                eager_opts.approximation = approx;
                Translation eager(*network, query, eager_opts);

                TranslationOptions lazy_opts = eager_opts;
                lazy_opts.lazy = true;
                Translation lazy(*network, query, lazy_opts);
                EXPECT_TRUE(lazy.pda().lazy());
                EXPECT_EQ(lazy.pda().rule_count(), 0u) << text;
                EXPECT_EQ(lazy.total_rules(), eager.pda().rule_count()) << text;
                EXPECT_EQ(lazy.total_rules(), eager.total_rules()) << text;
                // State parity pins the interior pool: every chain interior
                // the eager build created exists in the pool, and vice versa.
                EXPECT_EQ(lazy.pda().state_count(), eager.pda().state_count()) << text;

                lazy.pda().materialize_all();
                EXPECT_TRUE(lazy.pda().fully_materialized());
                EXPECT_EQ(lazy.pda().rule_count(), eager.pda().rule_count()) << text;
                EXPECT_EQ(lazy.pda().state_count(), eager.pda().state_count()) << text;
                EXPECT_EQ(lazy.interior_pool_unused(), 0u) << text;
            }
        }
    }
}

/// Every rule leaving a control state gets the key an eager build gives it,
/// whatever order its labels are demanded in (rule keys drive the weighted
/// engine's canonical tie-breaks).
TEST_F(TranslationFixture, LabelDemandKeepsEagerRuleKeys) {
    const auto query = parse("<mpls* smpls? ip> .* <mpls* smpls? ip> 1");
    TranslationOptions options;
    options.approximation = Approximation::Under;
    Translation eager(net, query, options);
    options.lazy = true;
    Translation lazy(net, query, options);
    // Demand every (control state, label) pair in descending label order.
    // Control states are the label-granular ones, numbered before interiors.
    const auto control = [&](pda::StateId s) { return lazy.state_labels(s) != nullptr; };
    for (pda::StateId s = 0; s < lazy.pda().state_count() && control(s); ++s)
        for (auto label = static_cast<pda::Symbol>(net.labels.size()); label-- > 0;)
            lazy.pda().for_each_applicable(s, label, [](pda::RuleId, const auto&) {});
    const auto control_keys = [&](const pda::Pda& pda) {
        std::vector<std::pair<pda::RuleKey, std::uint32_t>> keys; // (key, target if control)
        for (pda::RuleId id = 0; id < pda.rule_slot_count(); ++id) {
            if (pda.rule_dead(id) || !control(pda.rule(id).from)) continue;
            const auto to = pda.rule(id).to;
            keys.emplace_back(pda.rule_canonical_key(id), control(to) ? to : UINT32_MAX);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    };
    EXPECT_FALSE(control_keys(eager.pda()).empty());
    EXPECT_EQ(control_keys(lazy.pda()), control_keys(eager.pda()));
    EXPECT_GT(lazy.pda().demanded_label_count(), 0u);
}

/// Lazy and eager must give identical answers, witness traces and weights
/// through the full verify() pipeline (reduction on for eager, skipped for
/// lazy — the demand filter subsumes it).
TEST_F(TranslationFixture, LazyVerifyMatchesEagerVerify) {
    const std::vector<std::string> queries = {
        "<ip> [.#v0] .* [v3#.] <ip> 0",
        "<ip> [.#v0] [v0#v2] [v2#v4] [v4#v3] [v3#.] <ip> 0",
        "<ip> [.#v0] [v0#v2] [v2#v4] [v4#v3] [v3#.] <ip> 1",
        "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
        "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 2",
        "<ip> .* <smpls ip> 0",
    };
    for (const auto& text : queries) {
        const auto query = parse(text);
        VerifyOptions lazy_opts;
        lazy_opts.translation = TranslationMode::Lazy;
        VerifyOptions eager_opts;
        eager_opts.translation = TranslationMode::Eager;
        const auto lazy = verify(net, query, lazy_opts);
        const auto eager = verify(net, query, eager_opts);
        EXPECT_EQ(lazy.answer, eager.answer) << text;
        EXPECT_EQ(lazy.weight, eager.weight) << text;
        ASSERT_EQ(lazy.trace.has_value(), eager.trace.has_value()) << text;
        if (lazy.trace) {
            EXPECT_EQ(*lazy.trace, *eager.trace) << text;
        }
        EXPECT_TRUE(lazy.stats.over.lazy_translation) << text;
        EXPECT_FALSE(eager.stats.over.lazy_translation) << text;
        EXPECT_LE(lazy.stats.over.pda_rules_materialized,
                  lazy.stats.over.pda_rules_total)
            << text;
        // The index-derived total is the eager build's rule count.
        EXPECT_EQ(lazy.stats.over.pda_rules_total, eager.stats.over.pda_rules_total) << text;
        EXPECT_EQ(lazy.stats.under.pda_rules_total, eager.stats.under.pda_rules_total) << text;
        EXPECT_GT(lazy.stats.over.pda_labels_materialized, 0u) << text;
        EXPECT_EQ(eager.stats.over.pda_labels_materialized, 0u) << text;
    }
}

/// Weighted equivalence: the minimum witness and its weight vector must not
/// depend on when rules materialize.
TEST_F(TranslationFixture, LazyWeightedVerifyMatchesEager) {
    const auto query = parse("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1");
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    std::vector<VerifyResult> results;
    for (const auto mode : {TranslationMode::Lazy, TranslationMode::Eager}) {
        VerifyOptions options;
        options.engine = EngineKind::Weighted;
        options.weights = &weights;
        options.translation = mode;
        const auto result = verify(net, query, options);
        EXPECT_EQ(result.answer, Answer::Yes);
        EXPECT_EQ(result.weight, (std::vector<std::uint64_t>{5, 0}));
        ASSERT_TRUE(result.trace.has_value());
        EXPECT_EQ(evaluate(net, *result.trace, weights),
                  (std::vector<std::uint64_t>{5, 0}));
        results.push_back(result);
    }
    // Canonical tie-breaks make the weighted witness demand-order proof.
    EXPECT_EQ(*results[0].trace, *results[1].trace);
    EXPECT_EQ(results[0].stats.over.pda_rules_total, results[1].stats.over.pda_rules_total);
    EXPECT_LT(results[0].stats.over.pda_rules_materialized,
              results[0].stats.over.pda_rules_total);
}

/// Battery-level equivalence on a synthesized operator network, including a
/// case where lazy materializes strictly less than the eager total.
TEST(TranslationLazy, NordunetBatteryMatchesEagerAndSavesWork) {
    auto synth = synthesis::make_nordunet_like();
    const auto& net = synth.network;
    synthesis::QueryBatteryOptions battery_options;
    battery_options.count = 8;
    const auto battery = synthesis::make_query_battery(synth, battery_options);
    ASSERT_FALSE(battery.empty());

    std::size_t partial = 0;
    for (const auto& text : battery) {
        const auto query = query::parse_query(text, net);
        VerifyOptions lazy_opts;
        lazy_opts.translation = TranslationMode::Lazy;
        VerifyOptions eager_opts;
        eager_opts.translation = TranslationMode::Eager;
        const auto lazy = verify(net, query, lazy_opts);
        const auto eager = verify(net, query, eager_opts);
        EXPECT_EQ(lazy.answer, eager.answer) << text;
        EXPECT_EQ(lazy.weight, eager.weight) << text;
        ASSERT_EQ(lazy.trace.has_value(), eager.trace.has_value()) << text;
        if (lazy.trace) {
            EXPECT_EQ(*lazy.trace, *eager.trace) << text;
        }
        EXPECT_EQ(lazy.stats.over.pda_rules_total, eager.stats.over.pda_rules_total) << text;
        EXPECT_EQ(lazy.stats.under.pda_rules_total, eager.stats.under.pda_rules_total) << text;
        if (lazy.stats.over.pda_rules_materialized < lazy.stats.over.pda_rules_total)
            ++partial;
    }
    // The index sizes Over and Under at k = 0, 1, 2 exactly, with and
    // without down links, and materialize_all consumes the pool.
    auto with_down = net;
    for (LinkId link = 0; link < with_down.topology.link_count(); link += 7)
        with_down.topology.set_link_state(link, false);
    for (const Network* network : std::initializer_list<const Network*>{&net, &with_down}) {
        for (const auto k : {0, 1, 2}) {
            const auto query = query::parse_query(
                "<smpls? ip> .* <smpls? ip> " + std::to_string(k), *network);
            for (const auto approx : {Approximation::Over, Approximation::Under}) {
                TranslationOptions options;
                options.approximation = approx;
                Translation eager(*network, query, options);
                options.lazy = true;
                Translation lazy(*network, query, options);
                EXPECT_EQ(lazy.total_rules(), eager.pda().rule_count()) << "k " << k;
                EXPECT_EQ(lazy.pda().state_count(), eager.pda().state_count()) << "k " << k;
                lazy.pda().materialize_all();
                EXPECT_EQ(lazy.pda().rule_count(), eager.pda().rule_count()) << "k " << k;
                EXPECT_EQ(lazy.interior_pool_unused(), 0u) << "k " << k;
            }
        }
    }
    // Early termination must leave at least some batteries partially
    // materialized — otherwise the lazy path degenerated to eager-with-steps.
    EXPECT_GT(partial, 0u);
}

// ---------------------------------------------------------------------------
// The per-snapshot translation index.

/// One index per snapshot: every translation of an unchanged network reads
/// the memoized one, and it equals a build from scratch.
TEST_F(TranslationFixture, IndexIsMemoizedPerSnapshot) {
    const auto query = parse("<ip> [.#v0] .* [v3#.] <ip> 0");
    TranslationOptions options;
    options.lazy = true;
    Translation first(net, query, options);
    Translation second(net, query, options);
    EXPECT_EQ(&first.index(), &second.index());
    EXPECT_EQ(&first.index(), TranslationIndex::of(net).get());
    EXPECT_EQ(first.index(), TranslationIndex(net));
    // A copy has equal content: it keeps the index until it is mutated.
    const auto copy = net;
    EXPECT_EQ(TranslationIndex::of(copy).get(), &first.index());
}

/// A network mutated after its first query is never answered from the
/// index of its old content: entry edits and link flips restamp it.
TEST(TranslationIndexFreshness, MutatedNetworkIsNeverServedStale) {
    const std::string text = "<ip> [.#v0] .* [v3#.] <ip> 0";
    auto net = synthesis::make_figure1_network();
    const auto canonical_answer = [&](const Network& network) {
        const auto result = verify(network, query::parse_query(text, network), {});
        std::string out(to_string(result.answer));
        if (result.trace) out += " " + std::to_string(result.trace->size());
        return out;
    };
    const auto v0 = *net.topology.find_router("v0");
    const auto e0 = *net.topology.in_link_through(v0, "e0");
    const auto e1 = *net.topology.out_link_through(v0, "e1");
    const auto ip1 = *net.labels.find(LabelType::Ip, "ip1");
    const std::vector<std::function<void(Network&)>> mutations = {
        [&](Network& n) { n.topology.set_link_state(e1, false); },
        [&](Network& n) { n.routing.remove_entry(e0, ip1); },
        [&](Network& n) { n.topology.set_link_state(e1, true); },
    };
    auto fresh = synthesis::make_figure1_network();
    EXPECT_EQ(canonical_answer(net), canonical_answer(fresh));
    for (const auto& mutate : mutations) {
        const auto before = TranslationIndex::of(net);
        mutate(net);
        mutate(fresh);
        EXPECT_NE(TranslationIndex::of(net).get(), before.get());
        EXPECT_EQ(*TranslationIndex::of(net), TranslationIndex(net));
        EXPECT_EQ(canonical_answer(net), canonical_answer(fresh));
    }
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
