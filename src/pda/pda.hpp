#pragma once
// Weighted pushdown system (paper §4.1).
//
// Rules are in the normal form  p γ → q w  with |w| ≤ 2:
//   Pop:   p γ → q ε
//   Swap:  p γ → q γ'
//   Push:  p γ → q γ₁γ₂   (γ₁ is the new top; γ₂ may be "same as matched")
//
// The left-hand symbol is a PreSpec: a concrete symbol, a *symbol class*
// (every symbol of one stratum — how the MPLS translation expresses "any
// label revealed by a pop, of the right kind"), or any symbol.  Classes keep
// the rule set polynomial instead of multiplying by the label alphabet.
//
// Every rule carries a Weight (see weight.hpp) and an opaque 32-bit tag the
// verification layer uses to map witness rule sequences back to forwarding
// decisions.

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nfa/symbol_set.hpp"
#include "pda/weight.hpp"
#include "util/flat_map.hpp"

namespace aalwines::pda {

using StateId = std::uint32_t;
using Symbol = nfa::Symbol;
using RuleId = std::uint32_t;

inline constexpr Symbol k_no_symbol = UINT32_MAX;
/// In a Push rule, label2 == k_same_symbol keeps the matched symbol below
/// the newly pushed top (a plain MPLS push on an unknown stack).
inline constexpr Symbol k_same_symbol = UINT32_MAX - 1;

using SymbolClass = std::uint8_t;
inline constexpr SymbolClass k_no_class = 0xFF;

/// A stack alphabet's symbol → class assignment with every class's member
/// set, built once and immutable after: PDAs over one alphabet share one
/// table (a translation adopts its snapshot's, see verify::TranslationIndex).
class SymbolClasses {
public:
    /// `class_of[s]` is symbol s's class, k_no_class for none; symbols past
    /// the end have none.
    explicit SymbolClasses(std::vector<SymbolClass> class_of);

    [[nodiscard]] SymbolClass class_of(Symbol symbol) const noexcept {
        return symbol < _class_of.size() ? _class_of[symbol] : k_no_class;
    }
    /// All symbols of `cls`, as an include-set (empty for a memberless class).
    [[nodiscard]] const nfa::SymbolSet& members(SymbolClass cls) const;

private:
    std::vector<SymbolClass> _class_of;
    std::vector<nfa::SymbolSet> _members; ///< by class id; classes past the end are empty
};

/// Left-hand-side symbol specification of a rule.
struct PreSpec {
    enum class Kind : std::uint8_t { Concrete, Class, Any };
    Kind kind = Kind::Concrete;
    Symbol symbol = k_no_symbol;  ///< for Concrete
    SymbolClass cls = k_no_class; ///< for Class

    [[nodiscard]] static PreSpec concrete(Symbol s) { return {Kind::Concrete, s, k_no_class}; }
    [[nodiscard]] static PreSpec of_class(SymbolClass c) {
        return {Kind::Class, k_no_symbol, c};
    }
    [[nodiscard]] static PreSpec any() { return {Kind::Any, k_no_symbol, k_no_class}; }

    bool operator==(const PreSpec&) const = default;
};

struct Rule {
    StateId from = 0;
    StateId to = 0;
    PreSpec pre;
    enum class OpKind : std::uint8_t { Pop, Swap, Push };
    OpKind op = OpKind::Pop;
    Symbol label1 = k_no_symbol; ///< Swap: written symbol; Push: new top
    Symbol label2 = k_no_symbol; ///< Push: symbol below top (or k_same_symbol)
    Weight weight = Weight::one();
    std::uint32_t tag = UINT32_MAX; ///< caller-defined; UINT32_MAX = internal
    /// Position of this rule among the rules leaving `from` with the same
    /// precondition, assigned by add_rule (caller-supplied values are
    /// overwritten).  Each (from, precondition) sequence is emitted whole
    /// and in a canonical order — by a provider-less build, by whole-state
    /// or per-label demand in any order, and again after a rebase — so
    /// (from, pre, ord) is a stable rule identity where the global RuleId is
    /// not (lazy materialization permutes id blocks between runs).  The
    /// solver's canonical witness tie-breaking keys on it.
    std::uint32_t ord = 0;
};

/// Run-independent rule identity, ordered (from, precondition, ord); see
/// Pda::rule_canonical_key.
struct RuleKey {
    StateId from = 0;
    std::uint64_t pre = 0; ///< PreSpec kind in the high word, symbol/class below
    std::uint32_t ord = 0;
    auto operator<=>(const RuleKey&) const = default;
};

class Pda;

/// Demand-driven rule source (the lazy network→PDA translation).  A PDA with
/// a provider attached starts rule-less; the first time saturation asks for a
/// state's outgoing rules (`for_each_applicable`) the provider is invoked to
/// emit them via `Pda::add_rule` — all of the state's rules, or, for a state
/// the provider declares label-granular, only those for the demanded top
/// labels.  Contract:
///   - every state (every (state, label) pair, when label-granular) is
///     materialized at most once — the PDA tracks the demands;
///   - the provider may fill *other* states as a side effect (an op chain's
///     interior states are emitted together with the chain) and must mark
///     them with `Pda::mark_materialized` so they are not asked again;
///   - all states must exist before the provider is attached — materializing
///     never adds states (saturation shares the state id space with the
///     P-automaton's helper states, so the PDA cannot grow mid-run).
class RuleProvider {
public:
    virtual ~RuleProvider() = default;
    /// Emit every rule whose from-state is `state` (pda.add_rule).  Never
    /// called for a label-granular state.
    virtual void materialize_state(Pda& pda, StateId state) = 0;
    /// Label granularity.  A non-null result declares that every rule
    /// leaving `state` has a concrete precondition drawn from the returned
    /// ascending, duplicate-free list; the PDA then demands the state one
    /// list entry at a time through materialize_label, so a pop with top γ
    /// pays for γ's rules only.  nullptr (the default): whole-state demand.
    [[nodiscard]] virtual const std::vector<Symbol>* state_labels(StateId state) const {
        (void)state;
        return nullptr;
    }
    /// Emit every rule leaving `state` whose precondition is
    /// `(*state_labels(state))[index]`, in canonical order.
    virtual void materialize_label(Pda& pda, StateId state, std::size_t index) {
        (void)pda;
        (void)state;
        (void)index;
    }
};

/// State storage is sparse in the ids nobody touches: a state costs nothing
/// until a rule leaves it or saturation demands it, and the per-state tables
/// grow up to the highest such id.  A translation hands out its chain
/// interiors in id order, so the ids a query touches are its control states
/// plus a prefix of each interior pool range, whatever state_count() is.
class Pda {
public:
    /// `alphabet_size` is the stack-symbol universe [0, alphabet_size).
    explicit Pda(Symbol alphabet_size) : _alphabet_size(alphabet_size) {}

    StateId add_state() { return static_cast<StateId>(_state_count++); }
    /// Append `count` states at once (ids state_count() onwards); O(1).
    void add_states(std::size_t count) { _state_count += count; }

    /// Adopt a symbol → class table (default: no symbol has a class).
    void set_symbol_classes(std::shared_ptr<const SymbolClasses> classes) {
        _classes = std::move(classes);
    }
    [[nodiscard]] const std::shared_ptr<const SymbolClasses>& symbol_classes() const noexcept {
        return _classes;
    }

    RuleId add_rule(Rule rule);

    [[nodiscard]] std::size_t state_count() const noexcept { return _state_count; }
    /// Live rules (excludes slots tombstoned by invalidate_states).
    [[nodiscard]] std::size_t rule_count() const noexcept {
        return _rules.size() - _free_rule_slots.size();
    }
    /// Bound for whole-PDA id loops; slots in [0, rule_slot_count()) may be
    /// dead — check rule_dead(id) when iterating a PDA that has been through
    /// invalidate_states (provider-less PDAs never have dead slots).
    [[nodiscard]] std::size_t rule_slot_count() const noexcept { return _rules.size(); }
    [[nodiscard]] bool rule_dead(RuleId id) const noexcept { return _dead_rules[id]; }
    [[nodiscard]] Symbol alphabet_size() const noexcept { return _alphabet_size; }
    [[nodiscard]] const Rule& rule(RuleId id) const { return _rules[id]; }
    /// Raw slot array — includes stale data in dead slots (see rule_dead).
    [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return _rules; }

    /// Run-independent rule identity: (from state, precondition, position
    /// among the rules of that state and precondition).  Equal-weight
    /// witness tie-breaks prefer the smallest key (see pautomaton.hpp).
    /// Within one state the order is the whole-PDA emission order: a
    /// translation emits a control state's rules label by label, ascending.
    [[nodiscard]] RuleKey rule_canonical_key(RuleId id) const {
        const Rule& r = _rules[id];
        std::uint64_t pre = static_cast<std::uint64_t>(r.pre.kind) << 32;
        switch (r.pre.kind) {
            case PreSpec::Kind::Concrete: pre |= r.pre.symbol; break;
            case PreSpec::Kind::Class: pre |= r.pre.cls; break;
            case PreSpec::Kind::Any: break;
        }
        return {r.from, pre, r.ord};
    }

    [[nodiscard]] SymbolClass class_of(Symbol symbol) const {
        return _classes != nullptr ? _classes->class_of(symbol) : k_no_class;
    }

    /// All symbols of one class, as an include-set.
    [[nodiscard]] const nfa::SymbolSet& class_set(SymbolClass cls) const;

    /// The symbol set matched by a rule's PreSpec.
    [[nodiscard]] nfa::SymbolSet pre_set(const PreSpec& pre) const;

    /// Invoke `fn(rule_id, matched)` for every rule from `state` applicable
    /// to some symbol of `label`; `matched` is the (non-empty) subset of
    /// `label` the rule fires on.  Concrete-precondition rules are visited
    /// by ascending symbol, then class rules, then any-rules.
    template <typename Fn>
    void for_each_applicable(StateId state, const nfa::SymbolSet& label, Fn&& fn) const;

    /// Overload for a concrete top symbol.
    template <typename Fn>
    void for_each_applicable(StateId state, Symbol symbol, Fn&& fn) const;

    /// Un-materialize states of a lazy PDA: drop every rule leaving a state
    /// in `heads` — following chains, i.e. also dropping the rules of any
    /// state reached through a rule target for which `owned(target)` holds —
    /// and clear the materialized flags and per-label demand marks so the
    /// provider is asked again on next demand.  Cost is O(dropped rules),
    /// not O(all rules): dropped slots are tombstoned onto a free list
    /// (add_rule reuses them), their match lists are emptied in place (list
    /// slots and (state, symbol) keys survive, so re-emission lands in the
    /// same lists in the same order and Rule::ord — the position within
    /// the list — restarts at 0).  A provider that re-emits identical
    /// sequences therefore reproduces the original Rule::ord values, which
    /// is what keeps incremental re-verification byte-identical to a cold
    /// run.  Surviving rule ids are NOT renumbered.
    /// The scalar-weight hint declared at set_rule_provider is retained.
    /// The delta subsystem's frontier re-saturation is the only caller.
    void invalidate_states(const std::vector<StateId>& heads,
                           const std::function<bool(StateId)>& owned);

    /// Whether saturation asked for any of `state`'s outgoing rules — the
    /// whole state, or some top labels of a label-granular one, including
    /// labels the state has no rules for (the answer "none" was read too).
    [[nodiscard]] bool is_demanded(StateId state) const {
        return _provider == nullptr || (state < _demand.size() && _demand[state].touched);
    }

    /// Swap rules p γ → q γ' with q == `target`, for pre*.  The index is
    /// built whole by build_target_index — on a lazy PDA after
    /// materialize_all(), since pre* needs every rule — and dropped by
    /// add_rule and invalidate_states; post* never reads it, so a
    /// demand-driven run never pays for it.  Not thread-safe on first use:
    /// saturate a shared PDA from one thread, or call build_target_index()
    /// up front.
    [[nodiscard]] const std::vector<RuleId>& swaps_into(StateId target) const {
        if (!_target_index_ready) build_target_index();
        return _swaps_into[target];
    }
    /// Push rules p γ → q γ₁γ₂ with q == `target` (same caching contract).
    [[nodiscard]] const std::vector<RuleId>& pushes_into(StateId target) const {
        if (!_target_index_ready) build_target_index();
        return _pushes_into[target];
    }
    void build_target_index() const;

    /// True while every rule weight is scalar (≤ 1 component, finite); the
    /// solver switches to the bucketed worklist only then.
    [[nodiscard]] bool all_weights_scalar() const noexcept { return _all_weights_scalar; }

    /// The fully concrete ("direct") encoding of this PDA: every class/any
    /// rule is instantiated per matching symbol and "same as matched" push
    /// operands are resolved.  Tags are preserved on every instance.  This
    /// is the encoding a checker without symbolic wildcards (such as Moped)
    /// consumes; its size grows with the label alphabet.  A lazy PDA is
    /// fully materialized first.
    [[nodiscard]] Pda expand_concrete() const;

    /// Attach a demand-driven rule source and switch the PDA to lazy mode:
    /// `for_each_applicable` materializes a state's rules on first use.
    /// Must be called after every state exists and before any rule.
    /// `weights_scalar_hint` pre-seeds `all_weights_scalar()` — the
    /// bucketed-worklist decision is made before any rule has materialized,
    /// so the provider must declare whether every rule it will ever emit
    /// carries a scalar weight.
    void set_rule_provider(RuleProvider* provider, bool weights_scalar_hint = true);

    [[nodiscard]] bool lazy() const noexcept { return _provider != nullptr; }

    /// Mark `state` materialized without invoking the provider — for states
    /// a provider fills as a side effect of another state's materialization
    /// (chain interiors).
    void mark_materialized(StateId state);

    /// Demand every remaining state's rules (no-op without a provider).
    /// Logically const: materialization is memoized evaluation of the fixed
    /// rule set the provider denotes.  pre* and whole-PDA passes
    /// (expand_concrete, structural validation) need every rule.  The one
    /// O(state_count()) pass of a lazy PDA.
    void materialize_all() const;

    /// States with demanded outgoing rules (is_demanded; == state_count()
    /// without a provider).
    [[nodiscard]] std::size_t materialized_state_count() const noexcept {
        return _provider != nullptr ? _demanded_count : state_count();
    }
    /// Distinct (state, label) pairs demanded from label-granular states
    /// (0 without a provider).
    [[nodiscard]] std::size_t demanded_label_count() const noexcept {
        return _demanded_labels;
    }
    [[nodiscard]] bool fully_materialized() const noexcept {
        return _provider == nullptr || _full_count == state_count();
    }

private:
    /// Per-state view of the match index.  Point lookups go through the flat
    /// interned-key table `_concrete_lists` (one probe for (state, symbol));
    /// the vectors here only exist so set-labelled matching can enumerate a
    /// state's distinct symbols/classes without hash-map iteration.
    struct StateMatch {
        /// (symbol, list id), ascending by symbol whatever the emission order.
        std::vector<std::pair<Symbol, std::uint32_t>> concrete;
        std::vector<std::pair<SymbolClass, std::uint32_t>> classes;
        std::uint32_t any_list = UINT32_MAX;
    };
    /// Lazy-mode demand bookkeeping of one state.
    struct StateDemand {
        std::uint32_t labels_demanded = 0; ///< granular: labels done
        /// Granular: a (state, label) pair is demanded iff `_label_marks`
        /// maps it to the state's current epoch; invalidate_states bumps
        /// the epoch, which clears every mark of the state at once.
        std::uint32_t epoch = 0;
        bool materialized = false; ///< all outgoing rules exist
        bool touched = false;      ///< is_demanded
    };

    /// The state's match index; nullptr while no rule leaves it.
    [[nodiscard]] const StateMatch* match_of(StateId state) const noexcept {
        return state < _match_by_state.size() ? &_match_by_state[state] : nullptr;
    }
    [[nodiscard]] bool materialized(StateId state) const noexcept {
        return state < _demand.size() && _demand[state].materialized;
    }
    /// The state's demand record, created on first use.
    StateDemand& demand_of(StateId state) const {
        if (state >= _demand.size()) _demand.resize(state + 1);
        return _demand[state];
    }

    [[nodiscard]] static std::uint64_t concrete_key(StateId state, Symbol symbol) noexcept {
        return (static_cast<std::uint64_t>(state) << 32) | symbol;
    }
    void index_rule(RuleId id);

    /// Lazy-mode fast paths: materialize the rules a read of `state` with
    /// top symbol(s) `label` needs, on first demand.  Must run before any
    /// such read of the state's match index.
    void ensure_materialized(StateId state, Symbol label) const {
        if (_provider != nullptr && !materialized(state)) demand(state, label);
    }
    void ensure_materialized(StateId state, const nfa::SymbolSet& label) const {
        if (_provider != nullptr && !materialized(state)) demand(state, label);
    }
    /// Slow paths of the above: label-granular states demand the matching
    /// labels (pure reads when all were demanded before), other states
    /// materialize whole.
    void demand(StateId state, Symbol label) const;
    void demand(StateId state, const nfa::SymbolSet& label) const;
    /// Demand entry `index` of `labels` (== state_labels(state)) unless done.
    void demand_label(StateId state, const std::vector<Symbol>& labels,
                      std::size_t index) const;
    [[nodiscard]] bool label_demanded(StateId state, Symbol label) const {
        return state < _demand.size() &&
               _label_marks.find(concrete_key(state, label)) == _demand[state].epoch;
    }
    void materialize_state(StateId state) const; ///< whole-state demand
    /// Flag `state` whole-materialized (first demand counts it).
    void set_materialized(StateId state) const;
    /// Record that saturation asked for some of `state`'s rules.
    void touch(StateId state) const;

    Symbol _alphabet_size;
    std::size_t _state_count = 0;
    std::vector<Rule> _rules;
    std::vector<bool> _dead_rules; ///< aligned with _rules; true = tombstone
    std::vector<RuleId> _free_rule_slots; ///< dead slots awaiting reuse (LIFO)
    std::size_t _rules_added = 0; ///< monotone add_rule count (telemetry)
    /// Up to the highest state a rule leaves (see match_of).
    std::vector<StateMatch> _match_by_state;
    util::FlatMap64 _concrete_lists; ///< (state, symbol) → id into _rule_lists
    std::vector<std::vector<RuleId>> _rule_lists;
    std::shared_ptr<const SymbolClasses> _classes;
    bool _all_weights_scalar = true;
    mutable bool _target_index_ready = false;
    mutable std::vector<std::vector<RuleId>> _swaps_into;
    mutable std::vector<std::vector<RuleId>> _pushes_into;
    RuleProvider* _provider = nullptr;
    // Lazy-mode demand bookkeeping.
    mutable std::vector<StateDemand> _demand; ///< up to the highest demanded state
    mutable util::FlatMap64 _label_marks;
    mutable std::size_t _demanded_count = 0; ///< states touched
    mutable std::size_t _full_count = 0;     ///< states with _materialized set
    mutable std::size_t _demanded_labels = 0; ///< live (state, label) marks
};

template <typename Fn>
void Pda::for_each_applicable(StateId state, Symbol symbol, Fn&& fn) const {
    ensure_materialized(state, symbol);
    const auto* state_match = match_of(state);
    if (state_match == nullptr) return; // no rule leaves the state
    const auto& match = *state_match;
    const bool has_class_rules = !match.classes.empty() && class_of(symbol) != k_no_class;
    const auto concrete_list = _concrete_lists.find(concrete_key(state, symbol));
    if (concrete_list == util::FlatMap64::k_npos && !has_class_rules &&
        match.any_list == UINT32_MAX)
        return; // common miss: no singleton set built
    const auto single = nfa::SymbolSet::single(symbol);
    if (concrete_list != util::FlatMap64::k_npos)
        for (const auto id : _rule_lists[concrete_list]) fn(id, single);
    if (has_class_rules) {
        const auto cls = class_of(symbol);
        for (const auto& [c, list] : match.classes)
            if (c == cls)
                for (const auto id : _rule_lists[list]) fn(id, single);
    }
    if (match.any_list != UINT32_MAX)
        for (const auto id : _rule_lists[match.any_list]) fn(id, single);
}

template <typename Fn>
void Pda::for_each_applicable(StateId state, const nfa::SymbolSet& label, Fn&& fn) const {
    ensure_materialized(state, label);
    const auto* state_match = match_of(state);
    if (state_match == nullptr) return; // no rule leaves the state
    const auto& match = *state_match;
    using Mode = nfa::SymbolSet::Mode;
    // Concrete-pre rules.
    if (label.mode() == Mode::Include && label.symbols().size() <= match.concrete.size()) {
        for (const auto symbol : label.symbols())
            if (const auto list = _concrete_lists.find(concrete_key(state, symbol));
                list != util::FlatMap64::k_npos) {
                const auto single = nfa::SymbolSet::single(symbol);
                for (const auto id : _rule_lists[list]) fn(id, single);
            }
    } else {
        for (const auto& [symbol, list] : match.concrete)
            if (label.contains(symbol)) {
                const auto single = nfa::SymbolSet::single(symbol);
                for (const auto id : _rule_lists[list]) fn(id, single);
            }
    }
    // Class rules.
    for (const auto& [cls, list] : match.classes) {
        auto matched = nfa::SymbolSet::intersection(label, class_set(cls));
        if (matched.is_empty_set()) continue;
        for (const auto id : _rule_lists[list]) fn(id, matched);
    }
    // Any rules.
    if (!label.is_empty_set() && match.any_list != UINT32_MAX)
        for (const auto id : _rule_lists[match.any_list]) fn(id, label);
}

} // namespace aalwines::pda
