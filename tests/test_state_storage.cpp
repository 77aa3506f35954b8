#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "pda_test_util.hpp"
#include "validate/validate.hpp"

// Sparse state storage: a PDA or P-automaton stores a state only once it is
// touched, so ids far past every touched one (a translation's unused
// interior pool) cost nothing and read as empty.

namespace aalwines::pda {
namespace {

using testutil::automaton_for_configs;
using testutil::exact_word;
using testutil::parity_classes;

constexpr StateId k_states = 1'000'000; // far more ids than any test touches

template <typename Label>
std::vector<RuleId> applicable(const Pda& pda, StateId state, const Label& label) {
    std::vector<RuleId> ids;
    pda.for_each_applicable(state, label, [&](RuleId id, const auto&) { ids.push_back(id); });
    return ids;
}

TEST(StateStorage, RuleOnAFarPoolState) {
    Pda pda(4);
    pda.add_states(k_states);
    pda.set_symbol_classes(parity_classes(4));
    ASSERT_EQ(pda.state_count(), k_states);
    const StateId far = k_states - 1;
    // p0 A → far B, then far [odd] → p1 ε.
    const auto into = pda.add_rule({0, far, PreSpec::concrete(0), Rule::OpKind::Swap, 1});
    const auto out = pda.add_rule({far, 1, PreSpec::of_class(1), Rule::OpKind::Pop});
    EXPECT_EQ(applicable(pda, 0, Symbol{0}), std::vector<RuleId>{into});
    EXPECT_EQ(applicable(pda, far, Symbol{1}), std::vector<RuleId>{out});
    EXPECT_EQ(applicable(pda, far, nfa::SymbolSet::any()), std::vector<RuleId>{out});
    for (const StateId untouched : {StateId{2}, k_states / 2, far - 1}) {
        EXPECT_TRUE(applicable(pda, untouched, Symbol{1}).empty()) << untouched;
        EXPECT_TRUE(applicable(pda, untouched, nfa::SymbolSet::any()).empty()) << untouched;
        EXPECT_TRUE(pda.swaps_into(untouched).empty()) << untouched;
    }
    EXPECT_EQ(pda.swaps_into(far), std::vector<RuleId>{into});
    EXPECT_TRUE(pda.pushes_into(far).empty());

    // post* through the far state, and the accept search over it.
    auto aut = automaton_for_configs(pda, {{0, {0}}});
    post_star(aut);
    const StateId starts[] = {k_states / 2, 1};
    const auto accepted = find_accepted(aut, starts, exact_word(std::vector<Symbol>{}), 4);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->control_state, 1u);
    const StateId at_far[] = {far};
    EXPECT_TRUE(find_accepted(aut, at_far, exact_word({1}), 4).has_value());
    EXPECT_TRUE(validate::check_pautomaton(aut).ok());
}

/// A lazy PDA whose provider owns one rule on a far state and one leading
/// into it, and asks nothing else of the states it is demanded for.
class FarProvider final : public RuleProvider {
public:
    explicit FarProvider(StateId far) : _far(far) {}
    void materialize_state(Pda& pda, StateId state) override {
        ++demands;
        if (state == 0) pda.add_rule({0, _far, PreSpec::concrete(0), Rule::OpKind::Push, 2, 3});
        if (state == _far) pda.add_rule({_far, 1, PreSpec::concrete(2), Rule::OpKind::Swap, 1});
    }
    std::size_t demands = 0;

private:
    StateId _far;
};

TEST(StateStorage, LazyDemandOfFarAndUntouchedStates) {
    constexpr StateId states = 10'000;
    const StateId far = states - 1;
    FarProvider provider(far);
    Pda pda(4);
    pda.add_states(states);
    pda.set_rule_provider(&provider);
    EXPECT_FALSE(pda.is_demanded(far));
    EXPECT_FALSE(pda.is_demanded(states / 2));
    EXPECT_EQ(pda.materialized_state_count(), 0u);

    EXPECT_EQ(applicable(pda, far, Symbol{2}).size(), 1u);
    EXPECT_TRUE(pda.is_demanded(far));
    EXPECT_TRUE(applicable(pda, states / 2, nfa::SymbolSet::any()).empty());
    EXPECT_TRUE(pda.is_demanded(states / 2));
    EXPECT_FALSE(pda.is_demanded(states / 2 + 1));
    EXPECT_EQ(pda.materialized_state_count(), 2u);
    EXPECT_EQ(provider.demands, 2u);

    // pre*'s target index: built whole on first use, after every state.
    EXPECT_EQ(pda.pushes_into(far).size(), 1u);
    EXPECT_TRUE(pda.fully_materialized());
    EXPECT_EQ(provider.demands, std::size_t{states});
    EXPECT_EQ(pda.swaps_into(1).size(), 1u);
}

/// invalidate_states drops pre*'s target index along with the rules, so
/// the next pre* reads an index rebuilt over the live rules only.
TEST(StateStorage, InvalidateDropsTheTargetIndex) {
    std::mt19937_64 rng(97);
    const auto eager = testutil::random_pda(rng, 6, 4, 40, false);
    /// Replays the eager rules one source state at a time.
    class Replay final : public RuleProvider {
    public:
        explicit Replay(const Pda& source) : _source(&source) {}
        void materialize_state(Pda& pda, StateId state) override {
            for (const auto& rule : _source->rules())
                if (rule.from == state) pda.add_rule(rule);
        }

    private:
        const Pda* _source;
    } provider(eager);
    Pda lazy(eager.alphabet_size());
    lazy.add_states(eager.state_count());
    lazy.set_symbol_classes(eager.symbol_classes());
    lazy.set_rule_provider(&provider);

    // Targets' rule tags, ascending (ids differ once slots are reused).
    const auto tags_into = [](const Pda& pda, StateId target) {
        std::vector<std::uint32_t> tags;
        for (const auto id : pda.swaps_into(target)) {
            EXPECT_FALSE(pda.rule_dead(id));
            tags.push_back(pda.rule(id).tag);
        }
        for (const auto id : pda.pushes_into(target)) {
            EXPECT_FALSE(pda.rule_dead(id));
            tags.push_back(pda.rule(id).tag + 1'000'000);
        }
        std::sort(tags.begin(), tags.end());
        return tags;
    };
    for (StateId t = 0; t < eager.state_count(); ++t)
        EXPECT_EQ(tags_into(lazy, t), tags_into(eager, t)) << "target " << t;

    lazy.invalidate_states({0, 3}, [](StateId) { return false; });
    EXPECT_FALSE(lazy.fully_materialized());
    for (StateId t = 0; t < eager.state_count(); ++t)
        EXPECT_EQ(tags_into(lazy, t), tags_into(eager, t)) << "target " << t;
    EXPECT_TRUE(lazy.fully_materialized());
}

TEST(StateStorage, AutomatonEdgesOnUntouchedControlAndHelperStates) {
    Pda pda(4);
    pda.add_states(k_states);
    PAutomaton aut(pda);
    const auto h1 = aut.add_state();
    const auto h2 = aut.add_state();
    EXPECT_EQ(h1, k_states); // helpers are numbered after every PDA state
    EXPECT_EQ(h2, k_states + 1);
    EXPECT_EQ(aut.state_count(), std::size_t{k_states} + 2);
    EXPECT_EQ(aut.dense_count(), 2u); // no PDA state touched yet
    EXPECT_FALSE(aut.is_control_state(h1));
    EXPECT_EQ(aut.canonical_state(h1), h1);

    const StateId never = k_states / 2;
    const StateId control = 7;
    const StateId eps_source = 5;
    for (const StateId s : {never, control, eps_source, h1, h2}) {
        EXPECT_TRUE(aut.transitions_from(s).empty()) << s;
        EXPECT_TRUE(aut.epsilons_from(s).empty()) << s;
        EXPECT_TRUE(aut.epsilons_into(s).empty()) << s;
        EXPECT_FALSE(aut.is_final(s)) << s;
    }

    const auto [t1, new1] = aut.add_transition(control, EdgeLabel::of(1), h1, Weight::one(), {});
    const auto [t2, new2] = aut.add_transition(h1, EdgeLabel::of(2), h2, Weight::one(), {});
    const auto [e1, new3] = aut.add_epsilon(eps_source, h1, Weight::one(), {});
    EXPECT_TRUE(new1 && new2 && new3);
    aut.set_final(h2);
    EXPECT_EQ(aut.transitions_from(control), std::vector<TransId>{t1});
    EXPECT_EQ(aut.transitions_from(h1), std::vector<TransId>{t2});
    EXPECT_EQ(aut.epsilons_from(eps_source), std::vector<std::uint32_t>{e1});
    EXPECT_EQ(aut.epsilons_into(h1), std::vector<std::uint32_t>{e1});
    EXPECT_TRUE(aut.is_final(h2));
    // Storage covers the PDA states up to the highest touched one, plus the
    // helpers — never the untouched ids above it.
    EXPECT_EQ(aut.dense_count(), std::size_t{control} + 1 + 2);
    EXPECT_FALSE(aut.has_storage(never));
    EXPECT_TRUE(aut.transitions_from(never).empty());
    EXPECT_TRUE(aut.epsilons_into(never).empty());

    const auto mid = aut.mid_state(control, 3);
    EXPECT_EQ(mid, k_states + 2);
    EXPECT_EQ(aut.canonical_state(mid) >> 63, 1u);
    EXPECT_EQ(aut.canonical_state(control), control);
    for (StateId s = 0; s <= control; ++s)
        EXPECT_EQ(aut.state_of_dense(aut.dense_index(s)), s);
    for (const StateId s : {h1, h2, mid}) EXPECT_EQ(aut.state_of_dense(aut.dense_index(s)), s);

    // The accept search skips an untouched start and maps dense nodes back
    // to state ids (it reads finalized edges only, as after a saturation).
    aut.transition(t1).finalized = true;
    aut.transition(t2).finalized = true;
    aut.epsilon(e1).finalized = true;
    const StateId starts[] = {never, control};
    const auto accepted = find_accepted(aut, starts, exact_word({1, 2}), 4);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->control_state, control);
    const StateId untouched_only[] = {never};
    EXPECT_FALSE(find_accepted(aut, untouched_only, exact_word({1, 2}), 4).has_value());
    const StateId via_eps[] = {eps_source};
    const auto through_eps = find_accepted(aut, via_eps, exact_word({2}), 4);
    ASSERT_TRUE(through_eps.has_value());
    EXPECT_EQ(through_eps->leading_epsilon, std::optional<std::uint32_t>{e1});

    // A transition *into* an untouched PDA state (pre* adds them) leaves it
    // unstored; the accept search reads it as the dead end it is.
    const StateId target = control + 13;
    const auto [t3, new4] = aut.add_transition(h2, EdgeLabel::of(0), target, Weight::one(), {});
    ASSERT_TRUE(new4);
    aut.transition(t3).finalized = true;
    EXPECT_FALSE(aut.has_storage(target));
    EXPECT_EQ(aut.dense_count(), std::size_t{control} + 1 + 3);
    const StateId from_h1[] = {h1};
    EXPECT_FALSE(find_accepted(aut, from_h1, exact_word({2, 0}), 4).has_value());
    aut.set_final(target); // a final mark stores it
    EXPECT_TRUE(aut.has_storage(target));
    const auto through_target = find_accepted(aut, from_h1, exact_word({2, 0}), 4);
    ASSERT_TRUE(through_target.has_value());
    EXPECT_EQ(through_target->path.size(), 2u);
    EXPECT_TRUE(validate::check_pautomaton(aut).ok());
}

} // namespace
} // namespace aalwines::pda
