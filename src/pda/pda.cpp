#include "pda/pda.hpp"

#include <algorithm>
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace aalwines::pda {

SymbolClasses::SymbolClasses(std::vector<SymbolClass> class_of)
    : _class_of(std::move(class_of)) {
    std::vector<std::vector<Symbol>> members;
    for (Symbol s = 0; s < _class_of.size(); ++s) {
        const auto cls = _class_of[s];
        if (cls == k_no_class) continue;
        if (members.size() <= cls) members.resize(cls + 1);
        members[cls].push_back(s);
    }
    _members.reserve(members.size());
    for (auto& symbols : members) _members.push_back(nfa::SymbolSet::of(std::move(symbols)));
}

const nfa::SymbolSet& SymbolClasses::members(SymbolClass cls) const {
    static const nfa::SymbolSet empty;
    return cls < _members.size() ? _members[cls] : empty;
}

void Pda::index_rule(RuleId id) {
    auto& rule = _rules[id];
    if (rule.from >= _match_by_state.size()) _match_by_state.resize(rule.from + 1);
    auto& match = _match_by_state[rule.from];
    std::uint32_t list = UINT32_MAX;
    switch (rule.pre.kind) {
        case PreSpec::Kind::Concrete: {
            const auto key = concrete_key(rule.from, rule.pre.symbol);
            const auto next = static_cast<std::uint32_t>(_rule_lists.size());
            const auto [found, inserted] = _concrete_lists.try_emplace(key, next);
            list = found;
            if (inserted) {
                _rule_lists.emplace_back();
                // Keep the per-state list ascending by symbol: per-label
                // demand creates lists in demand order, but set-labelled
                // matching must visit them in one canonical order.
                const auto at = std::lower_bound(
                    match.concrete.begin(), match.concrete.end(), rule.pre.symbol,
                    [](const auto& entry, Symbol symbol) { return entry.first < symbol; });
                match.concrete.emplace(at, rule.pre.symbol, list);
            }
            break;
        }
        case PreSpec::Kind::Class: {
            for (const auto& [cls, existing] : match.classes)
                if (cls == rule.pre.cls) list = existing;
            if (list == UINT32_MAX) {
                list = static_cast<std::uint32_t>(_rule_lists.size());
                _rule_lists.emplace_back();
                match.classes.emplace_back(rule.pre.cls, list);
            }
            break;
        }
        case PreSpec::Kind::Any: {
            if (match.any_list == UINT32_MAX) {
                match.any_list = static_cast<std::uint32_t>(_rule_lists.size());
                _rule_lists.emplace_back();
            }
            list = match.any_list;
            break;
        }
    }
    rule.ord = static_cast<std::uint32_t>(_rule_lists[list].size());
    _rule_lists[list].push_back(id);
}

RuleId Pda::add_rule(Rule rule) {
    AALWINES_ASSERT(rule.from < _state_count, "rule.from is not a PDA state");
    AALWINES_ASSERT(rule.to < _state_count, "rule.to is not a PDA state");
    AALWINES_ASSERT(rule.op != Rule::OpKind::Swap || rule.label1 < _alphabet_size,
                    "swap rule writes a symbol outside the stack alphabet");
    AALWINES_ASSERT(rule.op != Rule::OpKind::Push ||
                        (rule.label1 < _alphabet_size &&
                         (rule.label2 < _alphabet_size || rule.label2 == k_same_symbol)),
                    "push rule operand outside the stack alphabet");
    AALWINES_ASSERT(rule.pre.kind != PreSpec::Kind::Concrete ||
                        rule.pre.symbol < _alphabet_size,
                    "rule precondition symbol outside the stack alphabet");
    // Reuse a tombstoned slot when one exists (lazy rebase churn), else grow.
    RuleId id;
    if (!_free_rule_slots.empty()) {
        id = _free_rule_slots.back();
        _free_rule_slots.pop_back();
        _dead_rules[id] = false;
    } else {
        id = static_cast<RuleId>(_rules.size());
    }
    ++_rules_added;
    if (!rule.weight.as_scalar()) {
        AALWINES_ASSERT(_provider == nullptr || !_all_weights_scalar,
                        "lazy provider declared scalar weights but emitted a vector one");
        _all_weights_scalar = false;
    }
    _target_index_ready = false;
    if (id < _rules.size()) {
        _rules[id] = std::move(rule);
    } else {
        _rules.push_back(std::move(rule));
        _dead_rules.push_back(false);
    }
    index_rule(id);
    return id;
}

const nfa::SymbolSet& Pda::class_set(SymbolClass cls) const {
    static const nfa::SymbolSet empty;
    return _classes != nullptr ? _classes->members(cls) : empty;
}

nfa::SymbolSet Pda::pre_set(const PreSpec& pre) const {
    switch (pre.kind) {
        case PreSpec::Kind::Concrete: return nfa::SymbolSet::single(pre.symbol);
        case PreSpec::Kind::Class: return class_set(pre.cls);
        case PreSpec::Kind::Any: return nfa::SymbolSet::any();
    }
    return nfa::SymbolSet::none();
}

void Pda::set_rule_provider(RuleProvider* provider, bool weights_scalar_hint) {
    AALWINES_ASSERT(provider != nullptr, "null rule provider");
    AALWINES_ASSERT(_provider == nullptr, "rule provider already attached");
    AALWINES_ASSERT(_rules.empty(), "the provider must be attached before any rule");
    _provider = provider;
    _demand.clear();
    _label_marks.clear();
    _demanded_count = 0;
    _full_count = 0;
    _demanded_labels = 0;
    _all_weights_scalar = weights_scalar_hint;
}

void Pda::mark_materialized(StateId state) {
    AALWINES_ASSERT(_provider != nullptr, "mark_materialized needs a rule provider");
    set_materialized(state);
}

void Pda::set_materialized(StateId state) const {
    auto& record = demand_of(state);
    if (record.materialized) return;
    record.materialized = true;
    ++_full_count;
    touch(state);
}

void Pda::touch(StateId state) const {
    auto& record = demand_of(state);
    if (record.touched) return;
    record.touched = true;
    ++_demanded_count;
    telemetry::count(telemetry::Counter::pda_states_materialized);
}

void Pda::materialize_state(StateId state) const {
    // Logically const: filling the memoized rule cache for one state.
    auto* self = const_cast<Pda*>(this); // NOLINT(cppcoreguidelines-pro-type-const-cast)
    set_materialized(state);
    // _rules_added, not _rules.size(): add_rule may be filling reused slots.
    const auto before = _rules_added;
    self->_provider->materialize_state(*self, state);
    telemetry::count(telemetry::Counter::pda_rules_materialized, _rules_added - before);
}

void Pda::demand_label(StateId state, const std::vector<Symbol>& labels,
                       std::size_t index) const {
    if (label_demanded(state, labels[index])) return;
    auto* self = const_cast<Pda*>(this); // NOLINT(cppcoreguidelines-pro-type-const-cast)
    touch(state);
    _label_marks.insert_or_assign(concrete_key(state, labels[index]), _demand[state].epoch);
    const auto done = ++_demand[state].labels_demanded;
    ++_demanded_labels;
    const auto before = _rules_added;
    self->_provider->materialize_label(*self, state, index);
    telemetry::count(telemetry::Counter::pda_labels_materialized);
    telemetry::count(telemetry::Counter::pda_rules_materialized, _rules_added - before);
    if (done == labels.size()) set_materialized(state);
}

void Pda::demand(StateId state, Symbol label) const {
    if (label_demanded(state, label)) return; // the common repeat pop
    touch(state);
    const auto* labels = _provider->state_labels(state);
    if (labels == nullptr) {
        materialize_state(state);
        return;
    }
    if (labels->empty()) {
        set_materialized(state); // no rules at all
        return;
    }
    // A symbol with no entry has no rules: nothing to mark, but the state
    // stays touched — a delta adding that entry must reach this saturation.
    const auto it = std::lower_bound(labels->begin(), labels->end(), label);
    if (it != labels->end() && *it == label)
        demand_label(state, *labels, static_cast<std::size_t>(it - labels->begin()));
}

void Pda::demand(StateId state, const nfa::SymbolSet& label) const {
    touch(state);
    const auto* labels = _provider->state_labels(state);
    if (labels == nullptr) {
        materialize_state(state);
        return;
    }
    if (labels->empty()) {
        set_materialized(state);
        return;
    }
    // Ascending label order: the same (state, label) demand sequence as a
    // run that met these labels one concrete pop at a time, in order.
    if (label.mode() == nfa::SymbolSet::Mode::Include &&
        label.symbols().size() <= labels->size()) {
        for (const auto symbol : label.symbols()) {
            const auto it = std::lower_bound(labels->begin(), labels->end(), symbol);
            if (it != labels->end() && *it == symbol)
                demand_label(state, *labels, static_cast<std::size_t>(it - labels->begin()));
        }
        return;
    }
    for (std::size_t i = 0; i < labels->size() && !materialized(state); ++i)
        if (label.contains((*labels)[i])) demand_label(state, *labels, i);
}

void Pda::materialize_all() const {
    if (_provider == nullptr) return;
    // Chain interiors are filled (and marked) together with the control
    // state that owns their chain, so iterating every state in id order
    // leaves exactly the never-demanded pool states as no-ops.
    for (StateId s = 0; s < state_count(); ++s) {
        if (materialized(s)) continue;
        if (const auto* labels = _provider->state_labels(s)) {
            for (std::size_t i = 0; i < labels->size(); ++i) demand_label(s, *labels, i);
            set_materialized(s); // also covers a label-less state
        } else {
            materialize_state(s);
        }
    }
}

void Pda::build_target_index() const {
    if (_target_index_ready) return;
    materialize_all(); // pre* needs the complete index, hence every rule
    _swaps_into.assign(state_count(), {});
    _pushes_into.assign(state_count(), {});
    for (RuleId id = 0; id < _rules.size(); ++id) {
        if (_dead_rules[id]) continue;
        const auto& rule = _rules[id];
        switch (rule.op) {
            case Rule::OpKind::Swap: _swaps_into[rule.to].push_back(id); break;
            case Rule::OpKind::Push: _pushes_into[rule.to].push_back(id); break;
            case Rule::OpKind::Pop: break; // pre* handles pops at initialization
        }
    }
    _target_index_ready = true;
}

void Pda::invalidate_states(const std::vector<StateId>& heads,
                            const std::function<bool(StateId)>& owned) {
    AALWINES_ASSERT(_provider != nullptr,
                    "invalidate_states is the lazy-PDA re-saturation path");
    if (heads.empty()) return;
    // O(dropped rules), never O(all rules) or O(states): every rule is
    // indexed under its from-state, so a dropped state's match lists
    // enumerate exactly the rules to kill — the chain closure is a plain
    // worklist over them.
    std::vector<bool> drop(_demand.size(), false);
    std::vector<StateId> dropped;
    dropped.reserve(heads.size());
    const auto is_dropped = [&](StateId s) { return s < drop.size() && drop[s]; };
    const auto push_state = [&](StateId s) {
        AALWINES_ASSERT(s < state_count(), "invalidated state out of range");
        if (is_dropped(s)) return;
        if (s >= drop.size()) drop.resize(s + 1, false);
        drop[s] = true;
        dropped.push_back(s);
    };
    for (const auto s : heads) push_state(s);
    std::vector<RuleId> dead;
    for (std::size_t i = 0; i < dropped.size(); ++i) { // grows during the loop
        if (dropped[i] >= _match_by_state.size()) continue; // no rule leaves it
        auto& match = _match_by_state[dropped[i]];
        // Empty the lists in place: the list slots, the StateMatch entries,
        // and the (state, symbol) keys in _concrete_lists all survive, so a
        // provider re-emitting the identical per-state sequence lands in the
        // same lists in the same order (and, since the lists restart empty,
        // reproduces Rule::ord — the canonical-tie-break contract).
        const auto drain = [&](std::uint32_t list) {
            for (const auto id : _rule_lists[list]) {
                const auto& rule = _rules[id];
                dead.push_back(id);
                if (!is_dropped(rule.to) && owned(rule.to)) push_state(rule.to);
            }
            _rule_lists[list].clear();
        };
        for (const auto& [symbol, list] : match.concrete) drain(list);
        for (const auto& [cls, list] : match.classes) drain(list);
        if (match.any_list != UINT32_MAX) drain(match.any_list);
    }
    std::size_t cleared = 0;
    for (const auto s : dropped) {
        if (!is_demanded(s)) continue;
        auto& record = _demand[s];
        record.touched = false;
        if (record.materialized) {
            record.materialized = false;
            --_full_count;
        }
        // Bumping the epoch clears every (s, label) demand mark at once.
        _demanded_labels -= record.labels_demanded;
        record.labels_demanded = 0;
        ++record.epoch;
        --_demanded_count;
        ++cleared;
    }
    // Tombstone the dead slots for reuse and drop pre*'s target index, which
    // lists them (the next pre* rebuilds it).  The scalar flag stays the
    // provider's declared hint.
    for (const auto id : dead) {
        _dead_rules[id] = true;
        _free_rule_slots.push_back(id);
    }
    _target_index_ready = false;
    telemetry::count(telemetry::Counter::delta_states_invalidated, cleared);
}

Pda Pda::expand_concrete() const {
    materialize_all(); // the concrete copy is a whole-PDA pass
    Pda out(_alphabet_size);
    out.add_states(state_count());
    out.set_symbol_classes(_classes);
    for (RuleId id = 0; id < _rules.size(); ++id) {
        if (_dead_rules[id]) continue;
        const auto& rule = _rules[id];
        if (rule.pre.kind == PreSpec::Kind::Concrete) {
            auto concrete = rule;
            if (concrete.op == Rule::OpKind::Push && concrete.label2 == k_same_symbol)
                concrete.label2 = concrete.pre.symbol;
            out.add_rule(std::move(concrete));
            continue;
        }
        for (const auto symbol : pre_set(rule.pre).materialize(_alphabet_size)) {
            auto concrete = rule;
            concrete.pre = PreSpec::concrete(symbol);
            if (concrete.op == Rule::OpKind::Push && concrete.label2 == k_same_symbol)
                concrete.label2 = symbol;
            out.add_rule(std::move(concrete));
        }
    }
    return out;
}

} // namespace aalwines::pda
