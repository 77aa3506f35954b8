#include <gtest/gtest.h>

#include "pda_test_util.hpp"

namespace aalwines::pda {
namespace {

using testutil::automaton_for_configs;
using testutil::exact_word;
using testutil::parity_classes;

constexpr Symbol A = 0, B = 1, C = 2;

TEST(PreStar, SwapRule) {
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Swap, B, k_no_symbol,
                  Weight::one(), 0});
    // Target set: (p1, B).  pre* must also accept (p0, A).
    auto aut = automaton_for_configs(pda, {{p1, {B}}});
    pre_star(aut);
    const StateId starts[] = {p0};
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({A}), 3).has_value());
    EXPECT_FALSE(find_accepted(aut, starts, exact_word({B}), 3).has_value());
}

TEST(PreStar, PushThenPopWitnessRunsForward) {
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    const auto p2 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::concrete(A), Rule::OpKind::Push, B, k_same_symbol,
                  Weight::one(), 0});
    pda.add_rule({p1, p2, PreSpec::concrete(B), Rule::OpKind::Pop, k_no_symbol,
                  k_no_symbol, Weight::one(), 1});
    auto aut = automaton_for_configs(pda, {{p2, {A}}});
    pre_star(aut);

    const StateId starts[] = {p0};
    const auto accepted = find_accepted(aut, starts, exact_word({A}), 3);
    ASSERT_TRUE(accepted.has_value());
    const auto witness = unroll_pre_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    EXPECT_EQ(witness->initial_state, p0);
    EXPECT_EQ(witness->initial_stack, (std::vector<Symbol>{A}));
    ASSERT_EQ(witness->rules.size(), 2u);
    EXPECT_EQ(pda.rule(witness->rules[0]).tag, 0u);
    EXPECT_EQ(pda.rule(witness->rules[1]).tag, 1u);
    const auto replay = replay_witness(pda, *witness);
    ASSERT_TRUE(replay.has_value());
    EXPECT_EQ(replay->back().first, p2);
    EXPECT_EQ(replay->back().second, (std::vector<Symbol>{A}));
}

TEST(PreStar, PopRuleAloneReachesTargetState) {
    // Target: (p1, ε-reachable only through the pop) — we encode the target
    // (p1, A) and ask which (p0, ? A) configurations can reach it.
    Pda pda(3);
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::concrete(B), Rule::OpKind::Pop, k_no_symbol,
                  k_no_symbol, Weight::one(), 0});
    auto aut = automaton_for_configs(pda, {{p1, {A}}});
    pre_star(aut);
    const StateId starts[] = {p0};
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({B, A}), 3).has_value());
    EXPECT_FALSE(find_accepted(aut, starts, exact_word({C, A}), 3).has_value());
}

TEST(PreStar, WeightedPrefersCheaperDerivation) {
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
    auto aut = automaton_for_configs(pda, {{p2, {C}}});
    pre_star(aut);
    const StateId starts[] = {p0};
    const auto accepted = find_accepted(aut, starts, exact_word({A}), 3);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->weight.components(), (std::vector<std::uint64_t>{5}));
}

TEST(PreStar, ClassPreRulesYieldSetTransitions) {
    // p0 [class0] -> p1 B: pre* over target (p1, B) accepts (p0, s) for
    // every class-0 symbol s.
    Pda pda(4);
    pda.set_symbol_classes(parity_classes(4));
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::of_class(0), Rule::OpKind::Swap, B, k_no_symbol,
                  Weight::one(), 0});
    auto aut = automaton_for_configs(pda, {{p1, {B}}});
    pre_star(aut);
    const StateId starts[] = {p0};
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({0}), 4).has_value());
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({2}), 4).has_value());
    EXPECT_FALSE(find_accepted(aut, starts, exact_word({3}), 4).has_value());
}

TEST(PreStar, SameSymbolPushIntersectsPreClass) {
    // p0 [class0] -> p1 B <matched>: reaching (p1, B s A) for a class-0 s
    // requires starting from (p0, s A).
    Pda pda(4);
    pda.set_symbol_classes(parity_classes(4));
    const auto p0 = pda.add_state();
    const auto p1 = pda.add_state();
    pda.add_rule({p0, p1, PreSpec::of_class(0), Rule::OpKind::Push, B, k_same_symbol,
                  Weight::one(), 0});
    auto aut = automaton_for_configs(pda, {{p1, {B, 2, A}}, {p1, {B, 3, A}}});
    pre_star(aut);
    const StateId starts[] = {p0};
    EXPECT_TRUE(find_accepted(aut, starts, exact_word({2, A}), 4).has_value());
    // Symbol 3 is class 1: the rule cannot have produced (p1, B 3 A).
    EXPECT_FALSE(find_accepted(aut, starts, exact_word({3, A}), 4).has_value());
}

} // namespace
} // namespace aalwines::pda
