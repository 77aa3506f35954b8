#include <gtest/gtest.h>

#include "pda_test_util.hpp"

namespace aalwines::pda {
namespace {

using testutil::any_stack;
using testutil::automaton_for_configs;
using testutil::exact_word;
using testutil::parity_classes;

constexpr Symbol A = 0, B = 1, C = 2;

TEST(PostStar, SwapRule) {
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Swap, B, k_no_symbol,
                  Weight::one(), 0});
    auto aut = automaton_for_configs(pda, {{p0, {A}}});
    post_star(aut);

    const StateId starts1[] = {p1};
    EXPECT_TRUE(find_accepted(aut, starts1, exact_word({B}), 3).has_value());
    EXPECT_FALSE(find_accepted(aut, starts1, exact_word({A}), 3).has_value());
    const StateId starts0[] = {p0};
    EXPECT_TRUE(find_accepted(aut, starts0, exact_word({A}), 3).has_value());
}

TEST(PostStar, PushThenPop) {
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    const auto p2 = pda.add_state();
    // p0 A -> p1 B A ; p1 B -> p2 ε : net effect (p0, A) ->* (p2, A).
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Push, B, k_same_symbol,
                  Weight::one(), 0});
    pda.add_rule({p1, p2, PreSpec::concrete(B), Rule::OpKind::Pop, k_no_symbol,
                  k_no_symbol, Weight::one(), 1});
    auto aut = automaton_for_configs(pda, {{p0, {A}}});
    post_star(aut);

    const StateId starts[] = {p2};
    const auto accepted = find_accepted(aut, starts, exact_word({A}), 3);
    ASSERT_TRUE(accepted.has_value());
    const auto witness = unroll_post_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    EXPECT_EQ(witness->initial_state, p0);
    EXPECT_EQ(witness->initial_stack, (std::vector<Symbol>{A}));
    EXPECT_EQ(witness->rules.size(), 2u);
    const auto replay = replay_witness(pda, *witness);
    ASSERT_TRUE(replay.has_value());
    EXPECT_EQ(replay->back().first, p2);
    EXPECT_EQ(replay->back().second, (std::vector<Symbol>{A}));
}

TEST(PostStar, UnboundedStackGrowthStaysFinite) {
    // p0 A -> p0 B A : post* set is infinite; the automaton must stay finite
    // and accept (p0, B^n A) for every n.
    Pda pda(2);
    const auto p0 = pda.add_state();
    pda.add_rule({p0, p0, PreSpec::any(), Rule::OpKind::Push, B, k_same_symbol,
                  Weight::one(), 0});
    auto aut = automaton_for_configs(pda, {{p0, {A}}});
    const auto stats = post_star(aut);
    EXPECT_FALSE(stats.truncated);

    const StateId starts[] = {p0};
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({A}), 2).has_value());
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({B, A}), 2).has_value());
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({B, B, B, B, A}), 2).has_value());
    EXPECT_FALSE(find_accepted(aut, starts, exact_word({A, B}), 2).has_value());
}

TEST(PostStar, WeightedPrefersCheaperPath) {
    // Two routes from (p0, A) to (p2, C): direct swap (cost 10) or
    // two-step swap through p1 (cost 2 + 3).
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    const auto p2 = pda.add_state();
    pda.add_rule({p0, p2, PreSpec::concrete(A), Rule::OpKind::Swap, C, k_no_symbol,
                  Weight::scalar(10), 0});
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Swap, B, k_no_symbol,
                  Weight::scalar(2), 1});
    pda.add_rule({p1, p2, PreSpec::concrete(B), Rule::OpKind::Swap, C, k_no_symbol,
                  Weight::scalar(3), 2});
    auto aut = automaton_for_configs(pda, {{p0, {A}}});
    post_star(aut);

    const StateId starts[] = {p2};
    const auto accepted = find_accepted(aut, starts, exact_word({C}), 3);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->weight.components(), (std::vector<std::uint64_t>{5}));
    const auto witness = unroll_post_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    ASSERT_EQ(witness->rules.size(), 2u);
    EXPECT_EQ(pda.rule(witness->rules[0]).tag, 1u);
    EXPECT_EQ(pda.rule(witness->rules[1]).tag, 2u);
}

TEST(PostStar, LexicographicWeightOrdersByPriority) {
    // Route X: weight (1, 100); route Y: weight (2, 0).  Lexicographic min
    // must pick X even though its second component is larger.
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Swap, B, k_no_symbol,
                  Weight::of({1, 100}), 0});
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Swap, C, k_no_symbol,
                  Weight::of({2, 0}), 1});
    auto aut = automaton_for_configs(pda, {{p0, {A}}});
    post_star(aut);
    const StateId starts[] = {p1};
    const auto accepted = find_accepted(aut, starts, any_stack(), 3);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->weight.components(), (std::vector<std::uint64_t>{1, 100}));
}

TEST(PostStar, ClassWildcardAfterPop) {
    // Rules modelling `pop o swap(C)` on an unknown revealed symbol of
    // class 0 (even symbols): p0 A -> p1 ε ; p1 [class0] -> p2 C.
    Pda pda(4);
    pda.set_symbol_classes(parity_classes(4));
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    const auto p2 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::concrete(1), Rule::OpKind::Pop, k_no_symbol,
                  k_no_symbol, Weight::one(), 0});
    pda.add_rule({p1, p2, PreSpec::of_class(0), Rule::OpKind::Swap, 2, k_no_symbol,
                  Weight::one(), 1});
    // Initial configs: (p0, 1 0) and (p0, 1 3): only the first has a
    // class-0 symbol below the popped top.
    auto aut = automaton_for_configs(pda, {{p0, {1, 0}}, {p0, {1, 3}}});
    post_star(aut);
    const StateId starts[] = {p2};
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({2}), 4).has_value());
    // From (p0, 1 3): the pop reaches p1 with top 3 (class 1), so the swap
    // cannot fire; (p2, anything) is reachable only via the class-0 branch.
    const StateId starts1[] = {p1};
    EXPECT_TRUE(find_accepted(aut, starts1, exact_word({3}), 4).has_value());
}

TEST(PostStar, SetLabelledInitialAutomaton) {
    // Initial stack language: [0|1] A — a set-labelled first edge.
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::concrete(B), Rule::OpKind::Swap, C, k_no_symbol,
                  Weight::one(), 0});
    PAutomaton aut(pda);
    const auto mid = aut.add_state();
    const auto fin = aut.add_state();
    aut.add_transition(p0, EdgeLabel::of_set(nfa::SymbolSet::of({A, B})), mid,
                       Weight::one(), {});
    aut.add_transition(mid, EdgeLabel::of(A), fin, Weight::one(), {});
    aut.set_final(fin);
    post_star(aut);
    const StateId starts[] = {p1};
    // Only the B branch of the set admits the swap rule.
    const auto accepted = find_accepted(aut, starts, exact_word({C, A}), 3);
    EXPECT_TRUE(accepted.has_value());
}

TEST(PostStar, IterationCapTruncates) {
    Pda pda(2);
    const auto p0 = pda.add_state();
    pda.add_rule({p0, p0, PreSpec::any(), Rule::OpKind::Push, B, k_same_symbol,
                  Weight::one(), 0});
    auto aut = automaton_for_configs(pda, {{p0, {A}}});
    SolverOptions options;
    options.max_iterations = 2;
    const auto stats = post_star(aut, options);
    EXPECT_TRUE(stats.truncated);
    EXPECT_LE(stats.iterations, 2u);
}


TEST(FindAcceptedN, EnumeratesAlternativesInWeightOrder) {
    // Two disjoint routes from (p0, A): cheap swap to B at p1, expensive
    // swap to C at p1.  find_accepted_n must list both, cheapest first.
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Swap, B, k_no_symbol,
                  Weight::scalar(1), 0});
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Swap, C, k_no_symbol,
                  Weight::scalar(7), 1});
    auto aut = testutil::automaton_for_configs(pda, {{p0, {A}}});
    post_star(aut);
    const StateId starts[] = {p1};
    const auto configs = find_accepted_n(aut, starts, testutil::any_stack(), 3, 8);
    ASSERT_EQ(configs.size(), 2u);
    EXPECT_EQ(configs[0].weight, Weight::scalar(1));
    EXPECT_EQ(configs[1].weight, Weight::scalar(7));
    ASSERT_EQ(configs[0].path.size(), 1u);
    EXPECT_EQ(configs[0].path[0].second, B);
    EXPECT_EQ(configs[1].path[0].second, C);
    // Each enumerated config unrolls to a valid witness.
    for (const auto& config : configs) {
        const auto witness = unroll_post_star(aut, config);
        ASSERT_TRUE(witness.has_value());
        EXPECT_TRUE(replay_witness(pda, *witness).has_value());
    }
    // Count = 1 behaves like find_accepted.
    const auto one = find_accepted_n(aut, starts, testutil::any_stack(), 3, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].weight, Weight::scalar(1));
}

TEST(FindAcceptedN, EqualWeightTieBreakIsDeterministic) {
    // Three equal-weight alternatives from (p0, A).  The k-shortest search
    // settles ties by insertion sequence, so the enumeration order must be
    // the rule-addition order — and identical across repeated calls and
    // across independently saturated automata.
    const Symbol D = 3;
    const auto build = [&] {
        Pda pda(4);
        const auto p0 = pda.add_state();
        const auto p1 = pda.add_state();
        for (const Symbol target : {B, C, D})
            pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Swap, target,
                          k_no_symbol, Weight::scalar(2), target});
        return pda;
    };
    const auto enumerate = [&](const Pda& pda) {
        auto aut = automaton_for_configs(pda, {{0, {A}}});
        post_star(aut);
        const StateId starts[] = {1};
        std::vector<Symbol> tops;
        for (const auto& config : find_accepted_n(aut, starts, any_stack(), 4, 8)) {
            EXPECT_EQ(config.weight, Weight::scalar(2));
            EXPECT_EQ(config.path.size(), 1u);
            tops.push_back(config.path.empty() ? k_no_symbol : config.path[0].second);
        }
        return tops;
    };
    const auto pda = build();
    const auto first = enumerate(pda);
    ASSERT_EQ(first, (std::vector<Symbol>{B, C, D}));
    EXPECT_EQ(enumerate(pda), first);   // same PDA, fresh saturation
    EXPECT_EQ(enumerate(build()), first); // independently built PDA
}

TEST(PostStar, WorkspaceArenasAreReusedAcrossCalls) {
    // Repeated saturations through one SolverWorkspace must recycle the
    // high-water arena footprint: after the first call no further chunks
    // are acquired, and the answers stay identical.
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p0, PreSpec::any(), Rule::OpKind::Push, B, k_same_symbol,
                  Weight::scalar(1), 0});
    pda.add_rule({p0, p1, PreSpec::concrete(B), Rule::OpKind::Swap, C, k_no_symbol,
                  Weight::scalar(1), 1});

    SolverWorkspace workspace;
    SolverOptions options;
    options.workspace = &workspace;
    options.max_iterations = 64;

    std::optional<Weight> first_weight;
    std::size_t worklist_capacity = 0, search_capacity = 0;
    for (int round = 0; round < 4; ++round) {
        auto aut = automaton_for_configs(pda, {{p0, {A}}});
        post_star(aut, options);
        const StateId starts[] = {p1};
        const auto accepted =
            find_accepted(aut, starts, exact_word({C, A}), 3, &workspace);
        ASSERT_TRUE(accepted.has_value()) << "round " << round;
        if (!first_weight) {
            first_weight = accepted->weight;
            worklist_capacity = workspace.worklist.capacity();
            search_capacity = workspace.search.capacity();
            EXPECT_GT(worklist_capacity, 0u);
        } else {
            EXPECT_EQ(accepted->weight, *first_weight) << "round " << round;
            // The footprint of round 0 satisfies every later round.
            EXPECT_EQ(workspace.worklist.capacity(), worklist_capacity)
                << "round " << round;
            EXPECT_EQ(workspace.search.capacity(), search_capacity)
                << "round " << round;
        }
    }
}

TEST(FindAcceptedN, FindsLongerConfigsThroughAcceptingNodes) {
    // (p0, B^n A) for every n: the accepting product node is revisited, so
    // enumeration must continue past earlier acceptances.
    Pda pda(2);
    const auto p0 = pda.add_state();
    pda.add_rule({p0, p0, PreSpec::any(), Rule::OpKind::Push, B, k_same_symbol,
                  Weight::scalar(1), 0});
    auto aut = testutil::automaton_for_configs(pda, {{p0, {A}}});
    post_star(aut);
    const StateId starts[] = {p0};
    const auto configs = find_accepted_n(aut, starts, testutil::any_stack(), 2, 4);
    ASSERT_EQ(configs.size(), 4u);
    // Stacks of increasing length: A, BA, BBA, BBBA.
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(configs[i].path.size(), i + 1);
}

} // namespace
} // namespace aalwines::pda
