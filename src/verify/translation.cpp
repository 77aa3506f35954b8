#include "verify/translation.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace aalwines::verify {

using nfa::Regex;
using nfa::SymbolSet;

nfa::Regex valid_header_regex(const LabelTable& labels) {
    // Top-first: mpls* smpls ip | ip.
    auto mpls = Regex::atom(SymbolSet::of(labels.of_type(LabelType::Mpls)));
    auto smpls = Regex::atom(SymbolSet::of(labels.of_type(LabelType::MplsBos)));
    auto ip = Regex::atom(SymbolSet::of(labels.of_type(LabelType::Ip)));
    std::vector<Regex> tunnel;
    tunnel.push_back(Regex::star(std::move(mpls)));
    tunnel.push_back(std::move(smpls));
    tunnel.push_back(ip);
    std::vector<Regex> branches;
    branches.push_back(Regex::concat(std::move(tunnel)));
    branches.push_back(std::move(ip));
    return Regex::alt(std::move(branches));
}

namespace {
/// Possible strata of an unknown top-of-stack symbol during a chain.
struct TopDescriptor {
    Label known = k_invalid_label; ///< concrete symbol, if known
    bool mpls = false, bos = false, ip = false;

    [[nodiscard]] static TopDescriptor of(Label label) {
        TopDescriptor d;
        d.known = label;
        return d;
    }
    [[nodiscard]] bool is_known() const { return known != k_invalid_label; }
};

/// Strata that may lie directly below a label of type `type` in a valid
/// header: below mpls is mpls|smpls, below smpls is ip, below ip nothing.
TopDescriptor below_of(LabelType type) {
    TopDescriptor d;
    switch (type) {
        case LabelType::Mpls: d.mpls = d.bos = true; break;
        case LabelType::MplsBos: d.ip = true; break;
        case LabelType::Ip: break;
    }
    return d;
}

pda::SymbolClass class_id(LabelType type) { return static_cast<pda::SymbolClass>(type); }
} // namespace

CompiledNfas compile_query_nfas(const Network& network, const query::Query& query) {
    AALWINES_SPAN("compile_query_nfas");
    CompiledNfas nfas;
    nfas.path = nfa::Nfa::compile(query.path);
    const auto header_nfa = nfa::Nfa::compile(valid_header_regex(network.labels));
    nfas.initial_header =
        nfa::Nfa::intersection(nfa::Nfa::compile(query.initial_header), header_nfa);
    nfas.final_header =
        nfa::Nfa::intersection(nfa::Nfa::compile(query.final_header), header_nfa);
    return nfas;
}

Translation::Translation(const Network& network, const query::Query& query,
                         const TranslationOptions& options)
    : _network(&network), _query(&query), _options(options) {
    AALWINES_SPAN("translate");
    if (options.nfas != nullptr) {
        _nfa_b = options.nfas->path;
        _nfa_a = options.nfas->initial_header;
        _nfa_c = options.nfas->final_header;
    } else {
        auto nfas = compile_query_nfas(network, query);
        _nfa_b = std::move(nfas.path);
        _nfa_a = std::move(nfas.initial_header);
        _nfa_c = std::move(nfas.final_header);
    }
    _failure_slots = _options.approximation == Approximation::Under
                         ? static_cast<std::uint32_t>(query.max_failures) + 1
                         : 1;
    if (_options.approximation == Approximation::Exact && _options.failed_links == nullptr)
        throw model_error("exact translation requires a concrete failure set");

    _pda = std::make_unique<pda::Pda>(static_cast<pda::Symbol>(network.labels.size()));
    for (Label label = 0; label < network.labels.size(); ++label)
        _pda->set_symbol_class(label, class_id(network.labels.type_of(label)));

    _index = TranslationIndex::of(network);
    build_control_states();
    build_move_index();
    if (_options.lazy) {
        _lazy = true;
        AALWINES_SPAN("size_lazy_pool");
        // Pre-allocate the chain-interior pool: materialization must never
        // add PDA states (the P-automaton's helper states share the id
        // space), so every interior an eager build would create exists up
        // front.  The index's shapes are exact, which the equivalence tests
        // pin down by asserting the pool is fully consumed after
        // materialize_all().
        std::size_t interiors = 0;
        for (LinkId l = 0; l < _index->link_count(); ++l) {
            const auto load = link_load(*_index, l);
            _total_rules += load.rules;
            interiors += load.interiors;
        }
        grow_pool(interiors);
        // The bucketed-worklist decision is made before any rule exists, so
        // declare up front whether every step weight will be scalar: the
        // weight vector's arity is fixed by the expression (≤ 1 component ⇒
        // scalar, matching what the eager translation would report).
        const bool scalar_weights =
            _options.weights == nullptr || _options.weights->size() <= 1;
        _pda->set_rule_provider(this, scalar_weights);
    } else {
        build_rules();
        _total_rules = _pda->rule_count();
        telemetry::count(telemetry::Counter::pda_rules_emitted, _pda->rule_count());
    }
    telemetry::count(telemetry::Counter::pda_states_interned, _pda->state_count());
    telemetry::count(telemetry::Counter::pda_rules_total, _total_rules);
}

pda::StateId Translation::control_state(LinkId link, std::uint32_t nfa_state,
                                        std::uint32_t failures) const {
    const auto n_links = static_cast<std::uint32_t>(_network->topology.link_count());
    const auto n_q = static_cast<std::uint32_t>(_nfa_b.size());
    AALWINES_ASSERT(link < n_links && nfa_state < n_q && failures < _failure_slots,
                    "control state components out of range");
    return (failures * n_q + nfa_state) * n_links + link;
}

void Translation::build_control_states() {
    const auto n_links = _network->topology.link_count();
    const auto n_control = _failure_slots * _nfa_b.size() * n_links;
    _pda->reserve_states(n_control);
    _control_info.reserve(n_control);
    for (std::uint32_t f = 0; f < _failure_slots; ++f) {
        for (std::uint32_t q = 0; q < _nfa_b.size(); ++q) {
            for (std::uint32_t e = 0; e < n_links; ++e) {
                const auto state = _pda->add_state();
                AALWINES_ASSERT(state == control_state(e, q, f),
                                "control state numbering out of sync");
                (void)state;
                _control_info.push_back({static_cast<LinkId>(e), q, f, false});
                if (_nfa_b.states()[q].accepting)
                    _accepting_states.push_back(control_state(e, q, f));
            }
        }
    }
    compute_initial_states();
}

void Translation::compute_initial_states() {
    // Initial configurations: the packet has just traversed any link e₁ the
    // path NFA can start with; no failures consumed yet.  Administratively
    // down links never start a trace (they are failed in every scenario).
    std::set<pda::StateId> initial;
    const auto domain = static_cast<nfa::Symbol>(_network->topology.link_count());
    for (const auto q0 : _nfa_b.initial()) {
        for (const auto& edge : _nfa_b.states()[q0].edges) {
            for (const auto link : edge.symbols.materialize(domain)) {
                if (!_network->topology.link_up(link)) continue;
                if (_options.approximation == Approximation::Exact &&
                    _options.failed_links->contains(link))
                    continue; // a trace cannot start on a failed link
                initial.insert(control_state(link, edge.target, 0));
            }
        }
    }
    _initial_states.assign(initial.begin(), initial.end());
}

bool Translation::initial_links_touch(const std::vector<bool>& dirty) const {
    const auto domain = static_cast<nfa::Symbol>(_network->topology.link_count());
    for (const auto q0 : _nfa_b.initial())
        for (const auto& edge : _nfa_b.states()[q0].edges)
            for (const auto link : edge.symbols.materialize(domain))
                if (link < dirty.size() && dirty[link]) return true;
    return false;
}

pda::Weight Translation::make_step_weight(const ForwardingRule& rule,
                                          std::uint64_t local_failures) const {
    if (_options.weights == nullptr || _options.weights->empty()) return pda::Weight::one();
    std::vector<std::uint64_t> components;
    components.reserve(_options.weights->size());
    for (const auto& expr : _options.weights->priorities)
        components.push_back(
            step_weight(*_network, expr, rule.out_link, rule.ops, local_failures));
    return pda::Weight::of(std::move(components));
}

pda::Weight Translation::make_initial_weight(LinkId first_link) const {
    if (_options.weights == nullptr || _options.weights->empty()) return pda::Weight::one();
    std::vector<std::uint64_t> components;
    components.reserve(_options.weights->size());
    for (const auto& expr : _options.weights->priorities)
        components.push_back(initial_weight(*_network, expr, first_link));
    return pda::Weight::of(std::move(components));
}

void Translation::build_move_index() {
    // Invert the path NFA once: the (q --link--> q') moves grouped by link,
    // in the same (q, edge) order the per-rule scan used to visit them.
    const auto n_links = _network->topology.link_count();
    _moves_by_link.assign(n_links, {});
    const auto domain = static_cast<nfa::Symbol>(n_links);
    for (std::uint32_t q = 0; q < _nfa_b.size(); ++q)
        for (const auto& edge : _nfa_b.states()[q].edges)
            for (const auto link : edge.symbols.materialize(domain))
                _moves_by_link[link].emplace_back(q, edge.target);
}

namespace {
/// Counting sink for walk_chain: tallies the rules and interior states a
/// chain would create without touching the PDA.  Must mirror EmitSink's
/// control flow exactly — the lazy interior pool is sized from these counts.
struct CountSink {
    std::size_t rules = 0;
    std::size_t interiors = 0;
    void step(std::size_t /*index*/, bool last) {
        if (!last) ++interiors;
    }
    void rule(pda::PreSpec /*pre*/, pda::Rule::OpKind /*op*/, pda::Symbol /*l1*/,
              pda::Symbol /*l2*/) {
        ++rules;
    }
};

/// Walk one op chain, driving `sink.step(index, last)` before each op and
/// `sink.rule(pre, op, l1, l2)` per emitted rule — the single source of
/// truth for chain shape, shared by emission (Translation::EmitSink) and the
/// index's counting (CountSink), so lazy totals match eager emission
/// rule-for-rule.
template <typename Sink>
void walk_chain(const LabelTable& labels, Label top, const std::vector<Op>& ops, Sink& sink) {
    // Pre-check the statically-known prefix so we do not emit half a chain.
    {
        TopDescriptor d = TopDescriptor::of(top);
        for (const auto& op : ops) {
            if (!d.is_known()) break; // runtime class branching takes over
            if (!op_applicable(labels, d.known, op)) return; // chain can never fire
            switch (op.kind) {
                case Op::Kind::Swap: d = TopDescriptor::of(op.label); break;
                case Op::Kind::Push: d = TopDescriptor::of(op.label); break;
                case Op::Kind::Pop: d = below_of(labels.type_of(d.known)); break;
            }
        }
    }

    if (ops.empty()) {
        // Plain forwarding: keep the top label, move to the target state.
        sink.step(0, /*last=*/true);
        sink.rule(pda::PreSpec::concrete(top), pda::Rule::OpKind::Swap, top,
                  pda::k_no_symbol);
        return;
    }

    TopDescriptor desc = TopDescriptor::of(top);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto& op = ops[i];
        // The interior state (when not last) is allocated before the
        // applicability check, matching the historical emission order —
        // chains that die mid-walk still consume their interiors, and the
        // index's chain shapes must agree on that.
        sink.step(i, i + 1 == ops.size());

        if (desc.is_known()) {
            const Label s = desc.known;
            if (!op_applicable(labels, s, op)) return; // dead chain (unknown-path)
            switch (op.kind) {
                case Op::Kind::Swap:
                    sink.rule(pda::PreSpec::concrete(s), pda::Rule::OpKind::Swap, op.label,
                              pda::k_no_symbol);
                    desc = TopDescriptor::of(op.label);
                    break;
                case Op::Kind::Push:
                    sink.rule(pda::PreSpec::concrete(s), pda::Rule::OpKind::Push, op.label,
                              s);
                    desc = TopDescriptor::of(op.label);
                    break;
                case Op::Kind::Pop:
                    sink.rule(pda::PreSpec::concrete(s), pda::Rule::OpKind::Pop,
                              pda::k_no_symbol, pda::k_no_symbol);
                    desc = below_of(labels.type_of(s));
                    break;
            }
        } else {
            // Unknown top: emit one class-guarded rule per possible stratum
            // on which the operation is defined.
            TopDescriptor next_desc; // union over branches
            bool emitted = false;
            const LabelType strata[] = {LabelType::Mpls, LabelType::MplsBos, LabelType::Ip};
            const bool allowed[] = {desc.mpls, desc.bos, desc.ip};
            for (int b = 0; b < 3; ++b) {
                if (!allowed[b]) continue;
                const auto stratum = strata[b];
                // A representative check: op applicability depends only on
                // the stratum of the top symbol.
                bool applicable = false;
                switch (op.kind) {
                    case Op::Kind::Swap:
                        applicable = labels.type_of(op.label) == stratum;
                        break;
                    case Op::Kind::Pop:
                        applicable = stratum != LabelType::Ip;
                        break;
                    case Op::Kind::Push: {
                        const auto pushed = labels.type_of(op.label);
                        applicable = (pushed == LabelType::Mpls &&
                                      stratum != LabelType::Ip) ||
                                     (pushed == LabelType::MplsBos &&
                                      stratum == LabelType::Ip);
                        break;
                    }
                }
                if (!applicable) continue;
                emitted = true;
                const auto pre = pda::PreSpec::of_class(class_id(stratum));
                switch (op.kind) {
                    case Op::Kind::Swap:
                        sink.rule(pre, pda::Rule::OpKind::Swap, op.label, pda::k_no_symbol);
                        next_desc = TopDescriptor::of(op.label);
                        break;
                    case Op::Kind::Push:
                        sink.rule(pre, pda::Rule::OpKind::Push, op.label,
                                  pda::k_same_symbol);
                        next_desc = TopDescriptor::of(op.label);
                        break;
                    case Op::Kind::Pop: {
                        sink.rule(pre, pda::Rule::OpKind::Pop, pda::k_no_symbol,
                                  pda::k_no_symbol);
                        const auto branch_below = below_of(stratum);
                        next_desc.mpls = next_desc.mpls || branch_below.mpls;
                        next_desc.bos = next_desc.bos || branch_below.bos;
                        next_desc.ip = next_desc.ip || branch_below.ip;
                        next_desc.known = k_invalid_label;
                        break;
                    }
                }
            }
            if (!emitted) return; // no stratum admits this op: dead chain
            desc = next_desc;
        }
    }
}

/// Invoke `fn(rule, local_failures)` for every forwarding rule of the entry
/// that may fire under the Over/Under approximations, whatever the failure
/// budget: administratively-down links are failed for free in every
/// scenario — packets never arrive on one, rules never forward over one,
/// and a fully-down group is skipped without charging the budget — so a
/// rule's local failures count the distinct up out-links of the groups
/// above it.
template <typename RuleFn>
void for_up_rules(const Topology& topology, LinkId in_link, const RoutingEntry& groups,
                  RuleFn&& fn) {
    if (!topology.link_up(in_link)) return;
    std::set<LinkId> higher_priority_links;
    for (const auto& group : groups) {
        const auto local_failures = static_cast<std::uint32_t>(higher_priority_links.size());
        for (const auto& rule : group)
            if (topology.link_up(rule.out_link)) fn(rule, local_failures);
        for (const auto& rule : group)
            if (topology.link_up(rule.out_link)) higher_priority_links.insert(rule.out_link);
    }
}
} // namespace

/// Emitting sink for walk_chain: allocates interior states (from the lazy
/// pool or by growing the PDA) and adds the rules.  The step weight and
/// trace tag ride on the first rule of the chain only.
struct Translation::EmitSink {
    Translation& t;
    pda::StateId from;
    pda::StateId target;
    pda::Weight weight;
    std::uint32_t tag;
    pda::StateId to = 0;
    std::size_t index = 0;

    void step(std::size_t i, bool last) {
        index = i;
        if (i > 0) from = to;
        to = last ? target : t.new_chain_state();
    }
    void rule(pda::PreSpec pre, pda::Rule::OpKind op, pda::Symbol l1, pda::Symbol l2) {
        t._pda->add_rule({from, to, pre, op, l1, l2,
                          index == 0 ? weight : pda::Weight::one(),
                          index == 0 ? tag : UINT32_MAX});
    }
};

pda::StateId Translation::new_chain_state() {
    if (_lazy) {
        // Saturation has already handed out P-automaton helper ids above
        // state_count(), so interiors must come from the pre-allocated pool
        // ranges (one per construction/rebase), consumed in order.
        while (_pool_cursor < _pools.size() &&
               _pools[_pool_cursor].first == _pools[_pool_cursor].second)
            ++_pool_cursor;
        AALWINES_ASSERT(_pool_cursor < _pools.size(), "chain-interior pool exhausted");
        const auto state = _pools[_pool_cursor].first++;
        _pda->mark_materialized(state); // interiors have no rules of their own
        return state;
    }
    const auto state = _pda->add_state();
    _control_info.push_back({k_invalid_id, 0, 0, true});
    return state;
}

void Translation::build_rules() {
    // Upper-bound the rule count (ignores failure-budget pruning and dead
    // chains) so the rule vector and its match indexes allocate once.
    std::size_t estimated_rules = 0;
    for (LinkId l = 0; l < _index->link_count(); ++l)
        for (const auto* groups : _index->row(l).entries)
            for (const auto& group : *groups)
                for (const auto& rule : group)
                    estimated_rules += _moves_by_link[rule.out_link].size() *
                                       std::max<std::size_t>(rule.ops.size(), 1);
    _pda->reserve_rules(estimated_rules * _failure_slots);

    for (LinkId l = 0; l < _index->link_count(); ++l) {
        const auto& row = _index->row(l);
        for (std::size_t i = 0; i < row.labels.size(); ++i)
            add_entry_rules(l, row.labels[i], *row.entries[i]);
    }
}

Translation::LinkLoad Translation::link_load(const TranslationIndex& index,
                                             LinkId in_link) const {
    LinkLoad load;
    const auto k = _query->max_failures;
    if (_options.approximation == Approximation::Exact) {
        const auto& row = index.row(in_link);
        for (std::size_t i = 0; i < row.labels.size(); ++i) {
            for_entry_rules(in_link, *row.entries[i],
                            [&](const ForwardingRule& rule, std::uint64_t) {
                CountSink counts;
                walk_chain(_network->labels, row.labels[i], rule.ops, counts);
                const auto copies = _moves_by_link[rule.out_link].size();
                load.rules += counts.rules * copies;
                load.interiors += counts.interiors * copies;
            });
        }
        return load;
    }
    // A chain's shape depends only on (top label, ops), so its counts
    // multiply across the path-NFA moves over its out-link and the failure
    // slots its local failures leave (Under: f + local ≤ k).
    for (const auto& shape : index.row(in_link).loads) {
        if (shape.local_failures > k) continue;
        std::size_t slots = 1;
        if (_options.approximation == Approximation::Under)
            slots = static_cast<std::size_t>(k - shape.local_failures) + 1;
        const auto copies = _moves_by_link[shape.out_link].size() * slots;
        load.rules += shape.rules * copies;
        load.interiors += shape.interiors * copies;
    }
    return load;
}

void Translation::grow_pool(std::size_t count) {
    if (count == 0) return;
    const auto begin = static_cast<pda::StateId>(_pda->state_count());
    _pda->add_states(count);
    _control_info.resize(_control_info.size() + count, {k_invalid_id, 0, 0, true});
    _pools.emplace_back(begin, static_cast<pda::StateId>(_pda->state_count()));
}

std::size_t Translation::interior_pool_unused() const noexcept {
    std::size_t unused = 0;
    for (std::size_t i = _pool_cursor; i < _pools.size(); ++i)
        unused += _pools[i].second - _pools[i].first;
    return unused;
}

template <typename RuleFn>
void Translation::for_entry_rules(LinkId in_link, const RoutingEntry& groups,
                                  RuleFn&& fn) const {
    // Administratively-down links are failed for free in every scenario:
    // packets never arrive on one, rules never forward over one, and a
    // fully-down group is skipped without charging the failure budget.
    const auto& topology = _network->topology;
    if (!topology.link_up(in_link)) return;
    if (_options.approximation == Approximation::Exact) {
        const auto& failed = *_options.failed_links;
        if (failed.contains(in_link)) return; // packets never arrive here
        // Definition 4, exactly: the first TE group with an active link
        // forwards; higher-priority groups are fully failed (down links for
        // free, up links charged through the scenario's failure set F).
        std::set<LinkId> higher_priority_links;
        for (const auto& group : groups) {
            std::vector<const ForwardingRule*> active;
            for (const auto& rule : group)
                if (!failed.contains(rule.out_link) && topology.link_up(rule.out_link))
                    active.push_back(&rule);
            if (active.empty()) {
                for (const auto& rule : group)
                    if (topology.link_up(rule.out_link))
                        higher_priority_links.insert(rule.out_link);
                continue;
            }
            const auto local_failures =
                static_cast<std::uint64_t>(higher_priority_links.size());
            for (const auto* rule : active) fn(*rule, local_failures);
            return; // only the first active group forwards
        }
        return;
    }
    const auto k = _query->max_failures;
    for_up_rules(topology, in_link, groups,
                 [&](const ForwardingRule& rule, std::uint32_t local_failures) {
        if (local_failures <= k) fn(rule, local_failures);
    });
}

void Translation::add_entry_rules(LinkId in_link, Label label, const RoutingEntry& groups,
                                  std::uint32_t only_q, std::uint32_t only_f) {
    const auto k = _query->max_failures;
    for_entry_rules(in_link, groups,
                    [&](const ForwardingRule& rule, std::uint64_t local_failures) {
        // A rule fires for every path-NFA move that consumes its out-link,
        // from every (in_link, q [, f]) control state — or just the
        // (only_q, only_f) slice when one state is materialized on demand.
        for (const auto& [q, q_next] : _moves_by_link[rule.out_link]) {
            if (only_q != k_any && q != only_q) continue;
            for (std::uint32_t f = 0; f < _failure_slots; ++f) {
                if (only_f != k_any && f != only_f) continue;
                std::uint32_t f_next = f;
                if (_options.approximation == Approximation::Under) {
                    if (f + local_failures > k) continue;
                    f_next = f + static_cast<std::uint32_t>(local_failures);
                }
                const auto from = control_state(in_link, q, f);
                const auto to = control_state(rule.out_link, q_next, f_next);
                const auto tag = static_cast<std::uint32_t>(_steps.size());
                _steps.push_back(
                    {rule.out_link, static_cast<std::uint32_t>(local_failures)});
                add_chain(from, label, rule, to,
                          make_step_weight(rule, local_failures), tag);
            }
        }
    });
}

void Translation::materialize_state(pda::Pda& pda, pda::StateId state) {
    (void)pda;
    (void)state;
    AALWINES_ASSERT(false, "interiors are pre-marked and control states label-granular");
}

const std::vector<pda::Symbol>* Translation::state_labels(pda::StateId state) const {
    const auto& info = _control_info[state];
    // Every rule leaving a control state is the first rule of a chain, whose
    // precondition is the entry's label (walk_chain): label-granular.
    return info.chain ? nullptr : &_index->row(info.link).labels;
}

void Translation::materialize_label(pda::Pda& pda, pda::StateId state, std::size_t index) {
    AALWINES_ASSERT(&pda == _pda.get(), "provider bound to a different PDA");
    (void)pda;
    const auto& info = _control_info[state];
    const auto& row = _index->row(info.link);
    add_entry_rules(info.link, row.labels[index], *row.entries[index], info.nfa_state,
                    info.failures);
}

void Translation::add_chain(pda::StateId from, Label top, const ForwardingRule& rule,
                            pda::StateId target, pda::Weight weight, std::uint32_t tag) {
    EmitSink sink{*this, from, target, std::move(weight), tag};
    walk_chain(_network->labels, top, rule.ops, sink);
}

std::vector<char> Translation::affected_links(
    const std::vector<bool>& dirty, const std::vector<bool>& behavior_dirty) const {
    const auto n_links = _network->topology.link_count();
    const auto dirty_at = [](const std::vector<bool>& bits, LinkId l) {
        return l < bits.size() && bits[l];
    };
    std::vector<char> affected(n_links, 0);
    // The into-scan is only needed when some out-link *behavior* changed;
    // the common delta (a routing-entry edit) leaves behavior_dirty empty
    // and the affected set is just the dirty set.
    const bool scan_out_links =
        std::find(behavior_dirty.begin(), behavior_dirty.end(), true) !=
        behavior_dirty.end();
    for (LinkId l = 0; l < n_links; ++l)
        if (dirty_at(dirty, l)) affected[l] = 1;
    if (!scan_out_links) return affected;
    for (LinkId out = 0; out < n_links; ++out)
        if (dirty_at(behavior_dirty, out))
            for (const auto l : _index->links_into(out)) affected[l] = 1;
    return affected;
}

bool Translation::footprint_touches(const std::vector<bool>& dirty,
                                    const std::vector<bool>& behavior_dirty) const {
    AALWINES_ASSERT(_lazy, "footprint queries need a demand-driven translation");
    const auto affected = affected_links(dirty, behavior_dirty);
    const auto n_control = _failure_slots * _nfa_b.size() * _network->topology.link_count();
    for (pda::StateId s = 0; s < n_control; ++s)
        if (_pda->is_demanded(s) && affected[_control_info[s].link]) return true;
    return false;
}

void Translation::add_to_footprint(LinkFootprint& fp) const {
    AALWINES_ASSERT(_lazy, "footprint snapshots need a demand-driven translation");
    const auto n_links = _network->topology.link_count();
    if (fp.materialized.size() < n_links) fp.materialized.resize(n_links, false);
    if (fp.out_links.size() < n_links) fp.out_links.resize(n_links, false);
    if (fp.initial.size() < n_links) fp.initial.resize(n_links, false);
    const auto n_control = _failure_slots * _nfa_b.size() * n_links;
    for (pda::StateId s = 0; s < n_control; ++s)
        if (_pda->is_demanded(s)) fp.materialized[_control_info[s].link] = true;
    // Only a materialized link's rules can be invalidated by an out-link
    // flip (the affected_links into-scan restricted to where it matters).
    for (LinkId l = 0; l < n_links; ++l)
        if (fp.materialized[l])
            for (const auto out : _index->row(l).out_links) fp.out_links[out] = true;
    const auto domain = static_cast<nfa::Symbol>(n_links);
    for (const auto q0 : _nfa_b.initial())
        for (const auto& edge : _nfa_b.states()[q0].edges)
            for (const auto link : edge.symbols.materialize(domain))
                fp.initial[link] = true;
}

void Translation::rebase(const Network& network, const std::vector<bool>& dirty,
                         const std::vector<bool>& behavior_dirty) {
    AALWINES_SPAN("rebase");
    AALWINES_ASSERT(_lazy, "rebase needs a demand-driven translation");
    AALWINES_ASSERT(network.topology.link_count() == _network->topology.link_count(),
                    "rebase cannot change the link set");
    AALWINES_ASSERT(network.labels.size() == _network->labels.size(),
                    "rebase cannot mint labels (cold rebuild required)");

    // The affected set can be computed against either snapshot's index:
    // for an unaffected link both hold identical rows.
    const auto affected = affected_links(dirty, behavior_dirty);
    const auto n_control =
        _failure_slots * _nfa_b.size() * _network->topology.link_count();
    std::vector<pda::StateId> heads;
    for (pda::StateId s = 0; s < n_control; ++s)
        if (_pda->is_demanded(s) && affected[_control_info[s].link]) heads.push_back(s);

    // Switch to the patched snapshot's index (carried over from the old one
    // when delta::apply_delta minted the snapshot).  Unaffected rows list
    // the same entries as the old ones, so the rules and per-label demand
    // marks of every surviving state stay valid.
    const auto previous = std::exchange(_index, TranslationIndex::of(network));
    _network = &network;

    _pda->invalidate_states(
        heads, [this](pda::StateId s) { return _control_info[s].chain; });

    // Re-sum the affected links against the new index; adjust the
    // eager-equivalent total and grow the interior pool by their full new
    // contribution (see the telescoping argument at _pools).
    std::size_t new_interiors = 0;
    for (LinkId l = 0; l < affected.size(); ++l) {
        if (!affected[l]) continue;
        const auto load = link_load(*_index, l);
        _total_rules -= link_load(*previous, l).rules;
        _total_rules += load.rules;
        new_interiors += load.interiors;
    }
    grow_pool(new_interiors);

    compute_initial_states();
    _reduced = false; // refresh the (lazy no-op) reduction stats next verify
}

void Translation::attach_header_nfa(pda::PAutomaton& aut, const nfa::Nfa& header_nfa,
                                    const std::vector<pda::StateId>& sources,
                                    bool weighted_entry, bool concrete_edges) const {
    const auto domain = static_cast<nfa::Symbol>(_network->labels.size());
    auto add_edge = [&](pda::StateId from, const nfa::SymbolSet& symbols,
                        pda::StateId to, const pda::Weight& weight) {
        if (!concrete_edges) {
            aut.add_transition(from, pda::EdgeLabel::of_set(symbols), to, weight, {});
            return;
        }
        for (const auto symbol : symbols.materialize(domain))
            aut.add_transition(from, pda::EdgeLabel::of(symbol), to, weight, {});
    };

    std::vector<pda::StateId> copy(header_nfa.size());
    for (std::size_t i = 0; i < header_nfa.size(); ++i) {
        copy[i] = aut.add_state();
        if (header_nfa.states()[i].accepting) aut.set_final(copy[i]);
    }
    for (std::size_t i = 0; i < header_nfa.size(); ++i)
        for (const auto& edge : header_nfa.states()[i].edges)
            add_edge(copy[i], edge.symbols, copy[edge.target], pda::Weight::one());
    for (const auto source : sources) {
        const auto entry_weight = weighted_entry
                                      ? make_initial_weight(_control_info[source].link)
                                      : pda::Weight::one();
        for (const auto q0 : header_nfa.initial())
            for (const auto& edge : header_nfa.states()[q0].edges)
                add_edge(source, edge.symbols, copy[edge.target], entry_weight);
    }
}

pda::PAutomaton Translation::make_initial_automaton() const {
    return make_initial_automaton(*_pda);
}

pda::PAutomaton Translation::make_final_automaton() const {
    return make_final_automaton(*_pda);
}

pda::PAutomaton Translation::make_initial_automaton(const pda::Pda& backend,
                                                    bool concrete_edges) const {
    pda::PAutomaton aut(backend);
    attach_header_nfa(aut, _nfa_a, _initial_states, /*weighted_entry=*/true,
                      concrete_edges);
    return aut;
}

pda::PAutomaton Translation::make_final_automaton(const pda::Pda& backend,
                                                  bool concrete_edges) const {
    pda::PAutomaton aut(backend);
    attach_header_nfa(aut, _nfa_c, _accepting_states, /*weighted_entry=*/false,
                      concrete_edges);
    return aut;
}

pda::ReductionStats Translation::reduce(int level) {
    if (_reduced) return _reduce_stats; // shared translations reduce once
    if (_lazy) {
        // Demand-driven construction subsumes the reduction pass: the match
        // index filters rule application on the exact reachable tops per
        // state, so the rules the abstract pass would prune can never fire.
        // Running it would force full materialization, defeating laziness.
        _reduce_stats.rules_before = _total_rules;
        _reduce_stats.rules_after = _total_rules;
        _reduced = true;
        return _reduce_stats;
    }
    AALWINES_SPAN("reduce");
    // Seed the analysis with the stack languages of the initial configs.
    SymbolSet top_set, second_set, deep_set;
    for (const auto q0 : _nfa_a.initial()) {
        for (const auto& edge : _nfa_a.states()[q0].edges) {
            top_set = SymbolSet::set_union(top_set, edge.symbols);
            for (const auto& second_edge : _nfa_a.states()[edge.target].edges)
                second_set = SymbolSet::set_union(second_set, second_edge.symbols);
        }
    }
    for (const auto& state : _nfa_a.states())
        for (const auto& edge : state.edges)
            deep_set = SymbolSet::set_union(deep_set, edge.symbols);

    std::vector<pda::TosSeed> seeds;
    seeds.reserve(_initial_states.size());
    for (const auto state : _initial_states) seeds.push_back({state, top_set, second_set});
    _reduce_stats = pda::reduce(*_pda, seeds, deep_set, level);
    _reduced = true;
    return _reduce_stats;
}

namespace {

/// One link's row of the index, against `network`'s current content.
std::shared_ptr<const TranslationIndex::Row> build_row(const Network& network, LinkId link) {
    using Load = TranslationIndex::Load;
    auto row = std::make_shared<TranslationIndex::Row>();
    network.routing.for_each_of(link, [&](Label label, const RoutingEntry& groups) {
        row->labels.push_back(label);
        row->entries.push_back(&groups);
        for (const auto& group : groups)
            for (const auto& rule : group) row->out_links.push_back(rule.out_link);
        for_up_rules(network.topology, link, groups,
                     [&](const ForwardingRule& rule, std::uint32_t local_failures) {
            CountSink counts;
            walk_chain(network.labels, label, rule.ops, counts);
            row->loads.push_back({rule.out_link, local_failures, counts.rules, counts.interiors});
        });
    });
    std::sort(row->out_links.begin(), row->out_links.end());
    row->out_links.erase(std::unique(row->out_links.begin(), row->out_links.end()),
                         row->out_links.end());
    // Aggregate by (out-link, local failures).
    auto& loads = row->loads;
    std::sort(loads.begin(), loads.end(), [](const Load& a, const Load& b) {
        return std::pair(a.out_link, a.local_failures) <
               std::pair(b.out_link, b.local_failures);
    });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        if (kept > 0 && loads[kept - 1].out_link == loads[i].out_link &&
            loads[kept - 1].local_failures == loads[i].local_failures) {
            loads[kept - 1].rules += loads[i].rules;
            loads[kept - 1].interiors += loads[i].interiors;
        } else {
            loads[kept++] = loads[i];
        }
    }
    loads.resize(kept);
    loads.shrink_to_fit();
    return row;
}

} // namespace

TranslationIndex::TranslationIndex(const Network& network) {
    AALWINES_SPAN("build_translation_index");
    const auto n_links = network.topology.link_count();
    _rows.reserve(n_links);
    _links_into.assign(n_links, {});
    for (LinkId l = 0; l < n_links; ++l) {
        _rows.push_back(build_row(network, l));
        link_into(l, *_rows.back());
    }
}

void TranslationIndex::link_into(LinkId in_link, const Row& row) {
    // In-links arrive in ascending order on a full build; a carried-over
    // row is inserted at its sorted place.
    for (const auto out : row.out_links) {
        auto& into = _links_into[out];
        const auto at = std::lower_bound(into.begin(), into.end(), in_link);
        if (at == into.end() || *at != in_link) into.insert(at, in_link);
    }
}

std::shared_ptr<const TranslationIndex> TranslationIndex::of(const Network& network) {
    return network.derived.get_or_build<TranslationIndex>(network.content_key(), [&] {
        return std::make_shared<const TranslationIndex>(network);
    });
}

void TranslationIndex::carry_over(const Network& base, const Network& next,
                                  const std::vector<LinkId>& entry_links,
                                  const std::vector<LinkId>& state_links) {
    const auto key = next.content_key();
    if (next.derived.find<TranslationIndex>(key) != nullptr) return;
    const auto from = base.derived.find<TranslationIndex>(base.content_key());
    if (from == nullptr) return;
    AALWINES_SPAN("carry_translation_index");
    AALWINES_ASSERT(from->link_count() == next.topology.link_count(),
                    "a delta cannot change the link set");
    // Rows read the in-link's entries and up/down state and the up/down
    // state of every out-link their rules name.
    std::vector<LinkId> stale(entry_links);
    for (const auto link : state_links) {
        stale.push_back(link);
        const auto& into = from->links_into(link);
        stale.insert(stale.end(), into.begin(), into.end());
    }
    std::sort(stale.begin(), stale.end());
    stale.erase(std::unique(stale.begin(), stale.end()), stale.end());

    auto index = std::make_shared<TranslationIndex>(*from);
    for (const auto link : stale) {
        for (const auto out : index->row(link).out_links) {
            auto& into = index->_links_into[out];
            into.erase(std::lower_bound(into.begin(), into.end(), link));
        }
        index->_rows[link] = build_row(next, link);
        index->link_into(link, *index->_rows[link]);
    }
    next.derived.store<TranslationIndex>(key, std::move(index));
}

bool TranslationIndex::operator==(const TranslationIndex& other) const {
    if (_rows.size() != other._rows.size() || _links_into != other._links_into) return false;
    for (std::size_t l = 0; l < _rows.size(); ++l)
        if (_rows[l] != other._rows[l] && !(*_rows[l] == *other._rows[l])) return false;
    return true;
}

TranslationCache::TranslationCache(const Network& network, const query::Query& query,
                                   const WeightExpr* weights, bool lazy)
    : _network(&network), _query(&query), _weights(weights), _lazy(lazy),
      _nfas(compile_query_nfas(network, query)) {}

TranslationCache::TranslationCache(const Network& network, const query::Query& query,
                                   const WeightExpr* weights, bool lazy,
                                   std::shared_ptr<const CompiledNfas> nfas)
    : _network(&network), _query(&query), _weights(weights), _lazy(lazy),
      _shared_nfas(std::move(nfas)) {
    AALWINES_ASSERT(_shared_nfas != nullptr, "shared-NFA cache without NFAs");
}

void TranslationCache::rebase(const Network& network, const std::vector<bool>& dirty,
                              const std::vector<bool>& behavior_dirty) {
    _network = &network;
    if (_over) _over->rebase(network, dirty, behavior_dirty);
    if (_under) _under->rebase(network, dirty, behavior_dirty); // distinct from _over by construction
}

Translation& TranslationCache::translation(Approximation approximation) {
    AALWINES_ASSERT(approximation != Approximation::Exact,
                    "exact scenarios are not cacheable (each failure set differs)");
    // With a zero failure budget both approximations have a single failure
    // slot and every entry's local-failure guard behaves identically, so the
    // emitted PDAs coincide rule for rule: reuse the Over translation.
    if (approximation == Approximation::Under && _query->max_failures == 0)
        approximation = Approximation::Over;
    auto& slot = approximation == Approximation::Under ? _under : _over;
    if (!slot) {
        TranslationOptions topts;
        topts.approximation = approximation;
        topts.weights = _weights;
        topts.nfas = &nfas();
        topts.lazy = _lazy;
        slot = std::make_unique<Translation>(*_network, *_query, topts);
    }
    return *slot;
}

std::optional<Trace> Translation::witness_to_trace(const pda::PdaWitness& witness) const {
    return witness_to_trace(witness, *_pda);
}

std::optional<Trace> Translation::witness_to_trace(const pda::PdaWitness& witness,
                                                   const pda::Pda& backend) const {
    AALWINES_SPAN("witness_to_trace");
    const auto replay = pda::replay_witness(backend, witness);
    if (!replay) return std::nullopt;
    const auto& configs = *replay;

    auto header_of = [](const std::vector<pda::Symbol>& top_first) {
        Header header(top_first.rbegin(), top_first.rend());
        return header;
    };

    if (witness.initial_state >= _control_info.size() ||
        _control_info[witness.initial_state].chain)
        return std::nullopt;

    Trace trace;
    trace.entries.push_back(
        {_control_info[witness.initial_state].link, header_of(configs.front().second)});

    // Chain boundaries: the first rule of each forwarding chain carries a
    // tag; the chain's effect is complete right before the next tagged rule.
    std::vector<std::pair<std::size_t, const StepInfo*>> forwards;
    for (std::size_t i = 0; i < witness.rules.size(); ++i) {
        const auto tag = backend.rule(witness.rules[i]).tag;
        if (tag != UINT32_MAX) forwards.emplace_back(i, &_steps[tag]);
    }
    for (std::size_t i = 0; i < forwards.size(); ++i) {
        const std::size_t end =
            i + 1 < forwards.size() ? forwards[i + 1].first : witness.rules.size();
        trace.entries.push_back({forwards[i].second->out_link, header_of(configs[end].second)});
    }
    telemetry::count(telemetry::Counter::traces_reconstructed);
    return trace;
}

} // namespace aalwines::verify
