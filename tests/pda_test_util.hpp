#pragma once
// Shared helpers for the PDA solver tests: tiny NFA builders, a brute-force
// configuration-space explorer used as a reference implementation, and a
// random PDA generator for property tests.

#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "nfa/nfa.hpp"
#include "pda/solver.hpp"

namespace aalwines::pda::testutil {

/// NFA accepting exactly one word.
inline nfa::Nfa exact_word(const std::vector<Symbol>& word) {
    std::vector<nfa::Regex> atoms;
    for (const auto s : word) atoms.push_back(nfa::Regex::atom(nfa::SymbolSet::single(s)));
    return nfa::Nfa::compile(nfa::Regex::concat(std::move(atoms)));
}

/// NFA accepting any non-empty stack over the domain.
inline nfa::Nfa any_stack() {
    return nfa::Nfa::compile(
        nfa::Regex::plus(nfa::Regex::atom(nfa::SymbolSet::any())));
}

using Config = std::pair<StateId, std::vector<Symbol>>; // stack top-first

/// All configurations reachable from `initial` with at most `max_steps` rule
/// applications and stacks no deeper than `max_depth` (reference model).
inline std::set<Config> brute_force_reachable(const Pda& pda,
                                              const std::vector<Config>& initial,
                                              std::size_t max_steps = 64,
                                              std::size_t max_depth = 6) {
    std::set<Config> seen(initial.begin(), initial.end());
    std::deque<std::pair<Config, std::size_t>> queue;
    for (const auto& config : initial) queue.push_back({config, 0});
    while (!queue.empty()) {
        auto [config, steps] = queue.front();
        queue.pop_front();
        if (steps >= max_steps || config.second.empty()) continue;
        const auto top = config.second.front();
        pda.for_each_applicable(
            config.first, top, [&](RuleId rule_id, const nfa::SymbolSet&) {
                const auto& rule = pda.rule(rule_id);
                Config next;
                next.first = rule.to;
                switch (rule.op) {
                    case Rule::OpKind::Pop:
                        next.second.assign(config.second.begin() + 1, config.second.end());
                        break;
                    case Rule::OpKind::Swap:
                        next.second = config.second;
                        next.second.front() = rule.label1;
                        break;
                    case Rule::OpKind::Push: {
                        const auto below =
                            rule.label2 == k_same_symbol ? top : rule.label2;
                        next.second.push_back(rule.label1);
                        next.second.push_back(below);
                        next.second.insert(next.second.end(), config.second.begin() + 1,
                                           config.second.end());
                        break;
                    }
                }
                if (next.second.size() > max_depth) return;
                if (seen.insert(next).second) queue.push_back({next, steps + 1});
            });
    }
    return seen;
}

/// Symbol classes by parity: class s % 2 for every symbol of [0, alphabet).
inline std::shared_ptr<const SymbolClasses> parity_classes(Symbol alphabet) {
    std::vector<SymbolClass> class_of(alphabet);
    for (Symbol s = 0; s < alphabet; ++s) class_of[s] = static_cast<SymbolClass>(s % 2);
    return std::make_shared<const SymbolClasses>(std::move(class_of));
}

/// Deterministically seeded random PDA over `alphabet` symbols and `states`
/// control states, with optional per-rule scalar weights.
inline Pda random_pda(std::mt19937_64& rng, StateId states, Symbol alphabet,
                      std::size_t rules, bool weighted, bool with_classes = true) {
    Pda pda(alphabet);
    for (StateId s = 0; s < states; ++s) pda.add_state();
    if (with_classes) pda.set_symbol_classes(parity_classes(alphabet));
    for (std::size_t i = 0; i < rules; ++i) {
        Rule rule;
        rule.from = static_cast<StateId>(rng() % states);
        rule.to = static_cast<StateId>(rng() % states);
        switch (with_classes ? rng() % 4 : 0) {
            case 1: rule.pre = PreSpec::of_class(static_cast<SymbolClass>(rng() % 2)); break;
            case 2: rule.pre = PreSpec::any(); break;
            default: rule.pre = PreSpec::concrete(static_cast<Symbol>(rng() % alphabet));
        }
        switch (rng() % 3) {
            case 0: rule.op = Rule::OpKind::Pop; break;
            case 1:
                rule.op = Rule::OpKind::Swap;
                rule.label1 = static_cast<Symbol>(rng() % alphabet);
                break;
            default:
                rule.op = Rule::OpKind::Push;
                rule.label1 = static_cast<Symbol>(rng() % alphabet);
                rule.label2 = rng() % 3 == 0 ? k_same_symbol
                                             : static_cast<Symbol>(rng() % alphabet);
                break;
        }
        if (weighted) rule.weight = Weight::scalar(rng() % 5);
        rule.tag = static_cast<std::uint32_t>(i);
        pda.add_rule(std::move(rule));
    }
    return pda;
}

/// Initial automaton accepting exactly the given configurations.
inline PAutomaton automaton_for_configs(const Pda& pda,
                                        const std::vector<Config>& configs) {
    PAutomaton aut(pda);
    for (const auto& [state, stack] : configs) {
        StateId current = state;
        for (std::size_t i = 0; i < stack.size(); ++i) {
            const auto next = aut.add_state();
            aut.add_transition(current, EdgeLabel::of(stack[i]), next, Weight::one(), {});
            current = next;
        }
        aut.set_final(current);
    }
    return aut;
}

} // namespace aalwines::pda::testutil
