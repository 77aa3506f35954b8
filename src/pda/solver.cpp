#include "pda/solver.hpp"

#include <cstdlib>
#include <cstring>
#include <deque>
#include <queue>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/hot_path.hpp"

namespace aalwines::pda {

namespace {

/// Heap worklist entry; min-ordered by (weight, insertion sequence).  The
/// sequence tie-break makes the unweighted case behave like BFS, which
/// keeps witnesses short.
struct HeapItem {
    Weight weight;
    std::uint64_t seq = 0;
    bool is_eps = false;
    std::uint32_t id = 0;
};

struct HeapCompare {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
        const auto cmp = a.weight <=> b.weight;
        if (cmp != std::strong_ordering::equal) return cmp == std::strong_ordering::greater;
        return a.seq > b.seq;
    }
};

using Heap = std::priority_queue<HeapItem, std::vector<HeapItem>, HeapCompare>;

/// Binary-heap worklist: the general discipline, any weight domain.
class HeapWorklist {
public:
    using Item = HeapItem;

    void push(const Weight& weight, bool is_eps, std::uint32_t id) {
        _heap.push({weight, _seq++, is_eps, id});
    }
    [[nodiscard]] bool empty() const { return _heap.empty(); }
    [[nodiscard]] std::size_t size() const { return _heap.size(); }
    Item pop() {
        Item item = _heap.top();
        _heap.pop();
        return item;
    }

private:
    Heap _heap;
    std::uint64_t _seq = 0;
};

[[nodiscard]] bool weight_is_current(const HeapItem& item, const Weight& weight) {
    return item.weight == weight;
}
// `strict` (canonical tie-breaking runs): keep saturating through the whole
// weight level equal to `best`, so every equal-weight minimal derivation is
// finalized before we stop — the canonical provenance choice then depends
// only on automaton content, never on where in the level a run halted.
[[nodiscard]] bool best_stops(const Weight& best, const HeapItem& item, bool strict) {
    return strict ? best < item.weight : best <= item.weight;
}

/// Dial's bucket queue, usable when every weight is a scalar (≤ 1 component).
/// Bucket index = scalar weight; FIFO within a bucket reproduces the heap's
/// (weight, insertion-seq) order exactly, so both disciplines finalize items
/// identically.  Saturation pushes are mostly monotone (extend only adds),
/// but post* inserts the first leg of a push rule at weight 1̄ (key 0) at any
/// point, so a push below the cursor rewinds it — the heap would pop that
/// minimal item next too.  Keys at or above the cap spill into a binary heap
/// drained only when no bucket entry is live (bucket keys < cap ≤ overflow
/// keys, so buckets always go first).  Nodes are bump-allocated.
class BucketWorklist {
public:
    struct Item {
        std::uint64_t key = 0;
        bool is_eps = false;
        std::uint32_t id = 0;
    };
    static constexpr std::uint64_t k_bucket_cap = 1u << 20;

    explicit BucketWorklist(util::Arena& arena) : _arena(&arena) {}

    void push(const Weight& weight, bool is_eps, std::uint32_t id) {
        const auto scalar = weight.as_scalar();
        AALWINES_ASSERT(scalar.has_value(), "bucket worklist requires scalar weights");
        const std::uint64_t key = *scalar;
        if (key >= k_bucket_cap) {
            _overflow.push({weight, _seq++, is_eps, id});
            ++_size;
            return;
        }
        if (key < _cursor) _cursor = key;
        auto* node = _arena->create<Node>(Node{id, is_eps, nullptr});
        if (key >= _buckets.size()) _buckets.resize(key + 1);
        auto& bucket = _buckets[key];
        if (bucket.tail != nullptr)
            bucket.tail->next = node;
        else
            bucket.head = node;
        bucket.tail = node;
        ++_size;
    }

    [[nodiscard]] bool empty() const { return _size == 0; }
    [[nodiscard]] std::size_t size() const { return _size; }

    Item pop() {
        while (_cursor < _buckets.size() && _buckets[_cursor].head == nullptr) ++_cursor;
        --_size;
        if (_cursor < _buckets.size()) {
            auto& bucket = _buckets[_cursor];
            Node* node = bucket.head;
            bucket.head = node->next;
            if (bucket.head == nullptr) bucket.tail = nullptr;
            return {_cursor, node->is_eps, node->id};
        }
        const HeapItem top = _overflow.top();
        _overflow.pop();
        return {*top.weight.as_scalar(), top.is_eps, top.id};
    }

private:
    struct Node {
        std::uint32_t id;
        bool is_eps;
        Node* next;
    };
    struct Bucket {
        Node* head = nullptr;
        Node* tail = nullptr;
    };

    util::Arena* _arena;
    std::vector<Bucket> _buckets;
    std::uint64_t _cursor = 0;
    std::size_t _size = 0;
    Heap _overflow;
    std::uint64_t _seq = 0;
};

[[nodiscard]] bool weight_is_current(const BucketWorklist::Item& item, const Weight& weight) {
    const auto scalar = weight.as_scalar();
    return scalar.has_value() && *scalar == item.key;
}
[[nodiscard]] bool best_stops(const Weight& best, const BucketWorklist::Item& item,
                              bool strict) {
    if (const auto scalar = best.as_scalar())
        return strict ? *scalar < item.key : *scalar <= item.key;
    const auto frontier = Weight::scalar(item.key);
    return strict ? best < frontier : best <= frontier;
}

[[nodiscard]] bool bucket_eligible(const PAutomaton& aut, const SolverOptions& options) {
    switch (options.worklist) {
        case Worklist::Heap: return false;
        case Worklist::Auto:
        case Worklist::Bucket:
            // Bucket forced on non-scalar weights still falls back: there is
            // no scalar key to index buckets with.
            return aut.all_scalar_weights() && aut.pda().all_weights_scalar();
    }
    return false;
}

EdgeLabel label_of_pre(const Pda& pda, const PreSpec& pre) {
    switch (pre.kind) {
        case PreSpec::Kind::Concrete: return EdgeLabel::of(pre.symbol);
        case PreSpec::Kind::Class: return EdgeLabel::of_set(pda.class_set(pre.cls));
        case PreSpec::Kind::Any: return EdgeLabel::of_set(nfa::SymbolSet::any());
    }
    return EdgeLabel::of_set(nfa::SymbolSet::none());
}

template <typename WL>
AALWINES_HOT_PATH void post_star_loop(PAutomaton& aut, const SolverOptions& options,
                                      SolverStats& stats, std::size_t& eps_relaxations,
                                      WL& worklist) {
    const Pda& pda = aut.pda();

    auto enqueue_trans = [&](TransId id) {
        ++stats.relaxations;
        worklist.push(aut.transition(id).weight, false, id);
    };
    auto enqueue_eps = [&](std::uint32_t id) {
        ++stats.relaxations;
        ++eps_relaxations;
        worklist.push(aut.epsilon(id).weight, true, id);
    };

    for (TransId id = 0; id < aut.transition_count(); ++id) enqueue_trans(id);

    std::size_t next_check = 512; // demand-driven acceptance checks, doubling

    while (!worklist.empty()) {
        stats.peak_queue = std::max(stats.peak_queue, worklist.size());
        const auto item = worklist.pop();

        if (options.check_accepted && stats.iterations >= next_check) {
            next_check *= 2;
            const auto best = options.check_accepted();
            // Items finalize in non-decreasing weight order: once the best
            // accepted weight is <= the frontier, it is globally minimal.
            if (!best.is_infinite() && best_stops(best, item, aut.canonical_tiebreaks())) {
                stats.early_terminated = true;
                break;
            }
        }

        if (item.is_eps) {
            auto& eps = aut.epsilon(item.id);
            if (eps.finalized || !weight_is_current(item, eps.weight)) continue; // stale
            eps.finalized = true;
            ++stats.iterations;
            // Combination: ε(x→q) ∘ (q, L, q')  ⇒  (x, L, q').
            const EpsTransition eps_copy = eps;
            // By index: inserting may move the automaton's edge storage.
            for (std::size_t i = 0; i < aut.transitions_from(eps_copy.to).size(); ++i) {
                const TransId tid = aut.transitions_from(eps_copy.to)[i];
                const Transition trans = aut.transition(tid); // copy (relocation below)
                if (!trans.finalized) continue;
                auto [nid, improved] = aut.add_transition(
                    eps_copy.from, trans.label, trans.to,
                    extend(eps_copy.weight, trans.weight),
                    {Provenance::Kind::PostCombine, UINT32_MAX, item.id, tid});
                if (improved) enqueue_trans(nid);
            }
        } else {
            auto& trans_ref = aut.transition(item.id);
            if (trans_ref.finalized || !weight_is_current(item, trans_ref.weight)) continue;
            trans_ref.finalized = true;
            ++stats.iterations;
            const Transition trans = trans_ref; // copy: the vector may grow below

            if (aut.is_control_state(trans.from)) {
                auto apply = [&](RuleId rule_id, const nfa::SymbolSet& matched) {
                    const Rule& rule = pda.rule(rule_id);
                    switch (rule.op) {
                        case Rule::OpKind::Swap: {
                            auto [nid, improved] = aut.add_transition(
                                rule.to, EdgeLabel::of(rule.label1), trans.to,
                                extend(trans.weight, rule.weight),
                                {Provenance::Kind::PostSwap, rule_id, item.id, k_no_trans});
                            if (improved) enqueue_trans(nid);
                            break;
                        }
                        case Rule::OpKind::Pop: {
                            auto [nid, improved] = aut.add_epsilon(
                                rule.to, trans.to, extend(trans.weight, rule.weight),
                                {Provenance::Kind::PostEps, rule_id, item.id, k_no_trans});
                            if (improved) enqueue_eps(nid);
                            break;
                        }
                        case Rule::OpKind::Push: {
                            const StateId mid = aut.mid_state(rule.to, rule.label1);
                            auto [t1, improved1] = aut.add_transition(
                                rule.to, EdgeLabel::of(rule.label1), mid, Weight::one(),
                                {Provenance::Kind::PostPushT1, rule_id, k_no_trans,
                                 k_no_trans});
                            if (improved1) enqueue_trans(t1);
                            const EdgeLabel below =
                                rule.label2 == k_same_symbol
                                    ? EdgeLabel::of_set(matched)
                                    : EdgeLabel::of(rule.label2);
                            auto [t2, improved2] = aut.add_transition(
                                mid, below, trans.to, extend(trans.weight, rule.weight),
                                {Provenance::Kind::PostPushT2, rule_id, item.id,
                                 k_no_trans});
                            if (improved2) enqueue_trans(t2);
                            break;
                        }
                    }
                };
                // On a lazy PDA this pop is what demands trans.from's rules:
                // the first finalized transition out of a control state with
                // a given top label materializes the rules for that label
                // (the whole state, when the provider is not label-granular).
                if (trans.label.is_concrete())
                    pda.for_each_applicable(trans.from, trans.label.concrete, apply);
                else
                    pda.for_each_applicable(trans.from, trans.label.set, apply);
            }

            // Combination where this transition is the second component.
            for (std::size_t i = 0; i < aut.epsilons_into(trans.from).size(); ++i) {
                const auto eid = aut.epsilons_into(trans.from)[i];
                const EpsTransition eps = aut.epsilon(eid);
                if (!eps.finalized) continue;
                auto [nid, improved] = aut.add_transition(
                    eps.from, trans.label, trans.to, extend(eps.weight, trans.weight),
                    {Provenance::Kind::PostCombine, UINT32_MAX, eid, item.id});
                if (improved) enqueue_trans(nid);
            }
        }

        if (options.max_iterations != 0 && stats.iterations >= options.max_iterations) {
            stats.truncated = true;
            break;
        }
    }
}

template <typename WL>
AALWINES_HOT_PATH void pre_star_loop(PAutomaton& aut, const SolverOptions& options,
                                     SolverStats& stats, WL& worklist) {
    const Pda& pda = aut.pda();
    // Cached across calls on the same PDA.  pre* consumes rules by *target*
    // state and seeds every pop rule unconditionally below, so demand-driven
    // construction cannot skip work here: a lazy PDA falls back to full
    // materialization (build_target_index materializes, then indexes every
    // rule once).
    pda.build_target_index();

    auto enqueue_trans = [&](TransId id) {
        ++stats.relaxations;
        worklist.push(aut.transition(id).weight, false, id);
    };

    // Push rules whose first written symbol matched a transition into state
    // `m` wait there for a matching second transition out of `m`.
    std::vector<std::vector<std::pair<RuleId, TransId>>> partials(aut.state_count());

    for (TransId id = 0; id < aut.transition_count(); ++id) enqueue_trans(id);
    for (RuleId id = 0; id < pda.rule_slot_count(); ++id) {
        if (pda.rule_dead(id)) continue;
        const auto& rule = pda.rule(id);
        if (rule.op != Rule::OpKind::Pop) continue;
        auto [nid, improved] =
            aut.add_transition(rule.from, label_of_pre(pda, rule.pre), rule.to, rule.weight,
                               {Provenance::Kind::PrePop, id, k_no_trans, k_no_trans});
        if (improved) enqueue_trans(nid);
    }

    auto try_complete = [&](RuleId rule_id, TransId t1_id, TransId t2_id) {
        const auto& rule = pda.rule(rule_id);
        // References, not copies (a copy allocates for a set label and a
        // non-zero weight): add_transition may move the transitions, but
        // its arguments are all computed before it runs.
        const Transition& t1 = aut.transition(t1_id);
        const Transition& t2 = aut.transition(t2_id);
        EdgeLabel new_label;
        if (rule.label2 == k_same_symbol) {
            auto inter = t2.label.intersect(pda.pre_set(rule.pre));
            if (!inter) return;
            new_label = std::move(*inter);
        } else {
            if (!t2.label.contains(rule.label2)) return;
            new_label = label_of_pre(pda, rule.pre);
        }
        auto [nid, improved] = aut.add_transition(
            rule.from, std::move(new_label), t2.to,
            extend(rule.weight, extend(t1.weight, t2.weight)),
            {Provenance::Kind::PrePush, rule_id, t1_id, t2_id});
        if (improved) enqueue_trans(nid);
    };

    while (!worklist.empty()) {
        stats.peak_queue = std::max(stats.peak_queue, worklist.size());
        const auto item = worklist.pop();
        auto& trans_ref = aut.transition(item.id);
        if (trans_ref.finalized || !weight_is_current(item, trans_ref.weight)) continue;
        trans_ref.finalized = true;
        ++stats.iterations;
        const Transition trans = trans_ref; // copy

        // Rules can only target PDA control states; transitions leaving
        // automaton-only helper states never match a rule's right-hand side.
        if (trans.from < pda.state_count()) {
            // Swap rules p γ → q γ' with q == trans.from and γ' in the label.
            for (const auto rule_id : pda.swaps_into(trans.from)) {
                const auto& rule = pda.rule(rule_id);
                if (!trans.label.contains(rule.label1)) continue;
                auto [nid, improved] = aut.add_transition(
                    rule.from, label_of_pre(pda, rule.pre), trans.to,
                    extend(rule.weight, trans.weight),
                    {Provenance::Kind::PreSwap, rule_id, item.id, k_no_trans});
                if (improved) enqueue_trans(nid);
            }
            // Push rules where this transition reads the first written symbol.
            for (const auto rule_id : pda.pushes_into(trans.from)) {
                const auto& rule = pda.rule(rule_id);
                if (!trans.label.contains(rule.label1)) continue;
                partials[trans.to].push_back({rule_id, item.id});
                // By index: try_complete's inserts may move edge storage.
                for (std::size_t i = 0; i < aut.transitions_from(trans.to).size(); ++i) {
                    const auto tid = aut.transitions_from(trans.to)[i];
                    if (aut.transition(tid).finalized) try_complete(rule_id, item.id, tid);
                }
            }
        }
        // This transition as the second written symbol of pending pushes.
        // try_complete never adds a partial, so the list is stable here.
        for (const auto& [rule_id, t1_id] : partials[trans.from])
            try_complete(rule_id, t1_id, item.id);

        if (options.max_iterations != 0 && stats.iterations >= options.max_iterations) {
            stats.truncated = true;
            break;
        }
    }
}

} // namespace

SolverStats post_star(PAutomaton& aut, const SolverOptions& options) {
    AALWINES_SPAN("post_star");
    SolverStats stats;
    std::size_t eps_relaxations = 0;

    if (bucket_eligible(aut, options)) {
        util::Arena local_arena;
        util::Arena& arena = options.workspace ? options.workspace->worklist : local_arena;
        arena.reset();
        BucketWorklist worklist(arena);
        post_star_loop(aut, options, stats, eps_relaxations, worklist);
        stats.bucket_worklist = true;
    } else {
        HeapWorklist worklist;
        post_star_loop(aut, options, stats, eps_relaxations, worklist);
    }

    stats.transitions = aut.transition_count();
    stats.epsilons = aut.epsilon_count();
    telemetry::count(telemetry::Counter::post_star_pops, stats.iterations);
    telemetry::count(telemetry::Counter::edge_relaxations,
                     stats.relaxations - eps_relaxations);
    telemetry::count(telemetry::Counter::epsilon_relaxations, eps_relaxations);
    telemetry::gauge_max(telemetry::Gauge::transition_high_water, stats.transitions);
    telemetry::gauge_max(telemetry::Gauge::epsilon_high_water, stats.epsilons);
    telemetry::gauge_max(telemetry::Gauge::worklist_high_water, stats.peak_queue);
    return stats;
}

SolverStats pre_star(PAutomaton& aut, const SolverOptions& options) {
    AALWINES_SPAN("pre_star");
    SolverStats stats;

    if (bucket_eligible(aut, options)) {
        util::Arena local_arena;
        util::Arena& arena = options.workspace ? options.workspace->worklist : local_arena;
        arena.reset();
        BucketWorklist worklist(arena);
        pre_star_loop(aut, options, stats, worklist);
        stats.bucket_worklist = true;
    } else {
        HeapWorklist worklist;
        pre_star_loop(aut, options, stats, worklist);
    }

    stats.transitions = aut.transition_count();
    stats.epsilons = aut.epsilon_count();
    telemetry::count(telemetry::Counter::pre_star_pops, stats.iterations);
    telemetry::count(telemetry::Counter::edge_relaxations, stats.relaxations);
    telemetry::gauge_max(telemetry::Gauge::transition_high_water, stats.transitions);
    telemetry::gauge_max(telemetry::Gauge::worklist_high_water, stats.peak_queue);
    return stats;
}

std::vector<AcceptedConfig> find_accepted_n(const PAutomaton& aut,
                                            std::span<const StateId> starts,
                                            const nfa::Nfa& stack_nfa, Symbol domain,
                                            std::size_t count) {
    AALWINES_SPAN("find_accepted");
    // k-shortest accepting walks over the product automaton: a node may be
    // settled up to `count` times; every settled visit keeps a back-pointer
    // to the visit it was reached from, so each accepting visit spells its
    // own path.
    //
    // Known caveat: multi-witness enumeration keeps the plain (weight, seq)
    // discipline — equal-weight walk *order* here is insertion-order based
    // and is not covered by the canonical tie-breaking guarantee (which
    // applies to the single-witness find_accepted only).  Callers requesting
    // max_witnesses > 1 may see equal-weight witnesses permuted between a
    // warm (delta or sweep rebase) run and a cold one.
    struct Visit {
        Weight dist;
        std::uint64_t key = 0;            // (automaton state << 32) | nfa state
        std::uint32_t parent = UINT32_MAX; // index into `settled`
        TransId via_trans = k_no_trans;    // k_no_trans => ε-move or start
        std::uint32_t via_epsilon = UINT32_MAX;
        Symbol via_symbol = k_no_symbol;
    };
    auto key_of = [](StateId a, std::uint32_t n) {
        return (static_cast<std::uint64_t>(a) << 32) | n;
    };

    struct HeapEntry {
        Weight dist;
        std::uint64_t seq;
        Visit visit;
    };
    struct EntryCompare {
        bool operator()(const HeapEntry& a, const HeapEntry& b) const {
            const auto cmp = a.dist <=> b.dist;
            if (cmp != std::strong_ordering::equal)
                return cmp == std::strong_ordering::greater;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, EntryCompare> heap;
    std::uint64_t seq = 0;
    std::vector<Visit> settled;
    util::FlatMap64 settle_counts;
    std::vector<AcceptedConfig> results;
    std::size_t decrease_keys = 0;

    for (const auto start : starts)
        for (const auto n0 : stack_nfa.initial())
            heap.push({Weight::one(), seq++,
                       Visit{Weight::one(), key_of(start, n0), UINT32_MAX, k_no_trans,
                             UINT32_MAX, k_no_symbol}});

    while (!heap.empty() && results.size() < count) {
        const auto item = heap.top();
        heap.pop();
        const auto found = settle_counts.find(item.visit.key);
        const std::uint32_t settles = found == util::FlatMap64::k_npos ? 0 : found;
        if (settles >= count) continue;
        settle_counts.insert_or_assign(item.visit.key, settles + 1);
        const auto visit_index = static_cast<std::uint32_t>(settled.size());
        settled.push_back(item.visit);
        const auto a_state = static_cast<StateId>(item.visit.key >> 32);
        const auto n_state = static_cast<std::uint32_t>(item.visit.key & 0xFFFFFFFFu);

        if (aut.is_final(a_state) && stack_nfa.states()[n_state].accepting) {
            AcceptedConfig config;
            config.weight = item.visit.dist;
            for (std::uint32_t cursor = visit_index; cursor != UINT32_MAX;
                 cursor = settled[cursor].parent) {
                const auto& step = settled[cursor];
                if (step.parent == UINT32_MAX) {
                    config.control_state = static_cast<StateId>(step.key >> 32);
                } else if (step.via_trans == k_no_trans) {
                    config.leading_epsilon = step.via_epsilon;
                } else {
                    config.path.emplace_back(step.via_trans, step.via_symbol);
                }
            }
            std::reverse(config.path.begin(), config.path.end());
            results.push_back(std::move(config));
            // Fall through: longer configurations may read onward through
            // this accepting node, so keep extending the visit.
        }

        for (const auto tid : aut.transitions_from(a_state)) {
            const auto& trans = aut.transition(tid);
            if (!trans.finalized) continue;
            for (const auto& edge : stack_nfa.states()[n_state].edges) {
                auto inter = trans.label.intersect(edge.symbols);
                if (!inter) continue;
                const auto symbol = inter->pick(domain);
                if (!symbol) continue;
                auto next_dist = extend(item.visit.dist, trans.weight);
                ++decrease_keys;
                heap.push({next_dist, seq++,
                           Visit{std::move(next_dist), key_of(trans.to, edge.target),
                                 visit_index, tid, UINT32_MAX, *symbol}});
            }
        }
        if (aut.is_control_state(a_state)) {
            for (const auto eps_id : aut.epsilons_from(a_state)) {
                const auto& eps = aut.epsilon(eps_id);
                if (!eps.finalized) continue;
                auto next_dist = extend(item.visit.dist, eps.weight);
                ++decrease_keys;
                heap.push({next_dist, seq++,
                           Visit{std::move(next_dist), key_of(eps.to, n_state),
                                 visit_index, k_no_trans, eps_id, k_no_symbol}});
            }
        }
    }
    telemetry::count(telemetry::Counter::accept_decrease_keys, decrease_keys);
    return results;
}

namespace {

/// Scalar product-search cap: the flat node table is product-indexed, so
/// bound its footprint (nodes are 32 bytes; 2²¹ entries ≈ 64 MiB).
constexpr std::size_t k_flat_search_cap = std::size_t{1} << 21;

/// Product-graph node of the scalar fast path.  Trivially destructible and
/// all-ones initializable: dist UINT64_MAX = unreached, parent/via fields
/// UINT32_MAX = the matching "none" sentinels — so the arena-backed table is
/// initialized with one memset.  No `finalized` flag: pushes happen only on
/// strict improvement, so at most one live heap entry matches `dist`, and
/// monotone weights make relaxing a settled node impossible.
///
/// Canonical runs (PAutomaton::canonical_tiebreaks) search by the composite
/// key (dist, hops) instead of dist alone: hops is a strictly positive edge
/// increment, so every parent pointer crosses to a strictly smaller key —
/// equal-*weight* parent rewrites can never form a cycle (zero-weight product
/// cycles otherwise could), and every candidate for a node's final parent is
/// offered by a strictly-smaller-key predecessor before the node itself pops.
/// Among exact (dist, hops) ties the canonically smallest step is kept, so
/// the reconstructed path is a pure function of automaton content.
struct ScalarNode {
    std::uint64_t dist;
    std::uint32_t hops;      ///< canonical runs only; UINT32_MAX = unreached
    std::uint32_t parent;    ///< product index, UINT32_MAX = search root
    TransId via_trans;       ///< k_no_trans => ε-move or root
    std::uint32_t via_epsilon;
    Symbol via_symbol;
};
static_assert(std::is_trivially_destructible_v<ScalarNode>);

struct ScalarItem {
    std::uint64_t dist;
    std::uint64_t seq;
    std::uint32_t hops;
    std::uint32_t node;
};
struct ScalarCompare {
    bool canonical = false;
    bool operator()(const ScalarItem& a, const ScalarItem& b) const {
        if (a.dist != b.dist) return a.dist > b.dist;
        if (canonical && a.hops != b.hops) return a.hops > b.hops;
        return a.seq > b.seq;
    }
};

[[nodiscard]] std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
    return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// find_accepted over a flat, arena-backed node table: sound when every
/// automaton weight is scalar.  Mirrors the general path's push order (ε
/// first, then transitions) and (dist, seq) tie-break, so both paths settle
/// nodes — and pick witnesses — identically.  The returned weight is
/// *recomputed* by extending the actual edge weights along the found path:
/// Weight::one() and Weight::scalar(0) compare equal but serialize
/// differently, and callers round-trip weights into reports byte-for-byte.
/// (Sole divergence: a path whose scalar distance saturates to exactly
/// 2⁶⁴−1 collides with the unreached sentinel and is not found.)
std::optional<AcceptedConfig> find_accepted_scalar(const PAutomaton& aut,
                                                   std::span<const StateId> starts,
                                                   const nfa::Nfa& stack_nfa,
                                                   Symbol domain, util::Arena& arena) {
    // Product nodes are indexed by the automaton's dense numbering, so the
    // table covers the states saturation touched, not the PDA's state space.
    const std::size_t n_nfa = stack_nfa.states().size();
    const std::size_t n_product = aut.dense_count() * n_nfa;
    const bool canonical = aut.canonical_tiebreaks();
    const auto node_of = [&](StateId state, std::size_t nfa_state) {
        return static_cast<std::uint32_t>(aut.dense_index(state) * n_nfa + nfa_state);
    };
    const auto state_of = [&](std::uint32_t node) {
        return aut.state_of_dense(static_cast<std::uint32_t>(node / n_nfa));
    };
    auto* nodes = arena.create_array<ScalarNode>(n_product);
    std::memset(static_cast<void*>(nodes), 0xFF, n_product * sizeof(ScalarNode));

    std::priority_queue<ScalarItem, std::vector<ScalarItem>, ScalarCompare> queue{
        ScalarCompare{canonical}};
    std::uint64_t seq = 0;
    std::size_t decrease_keys = 0;

    // Content key of a product node: (canonical automaton state, NFA state).
    auto prod_key = [&](std::uint32_t index) {
        return std::pair(aut.canonical_state(state_of(index)),
                         static_cast<std::uint32_t>(index % n_nfa));
    };
    // Canonical order on the (incoming step, predecessor) candidates of a
    // node at an exact (dist, hops) tie: ε-steps first, then the edge's
    // content identity, the read symbol, and finally the predecessor's key.
    auto step_less = [&](std::uint32_t cand_parent, TransId cand_trans,
                         std::uint32_t cand_eps, Symbol cand_symbol,
                         const ScalarNode& inc) {
        const bool cand_is_eps = cand_trans == k_no_trans;
        const bool inc_is_eps = inc.via_trans == k_no_trans;
        if (cand_is_eps != inc_is_eps) return cand_is_eps;
        if (cand_is_eps) {
            if (const int c = aut.compare_eps_identity(cand_eps, inc.via_epsilon))
                return c < 0;
        } else {
            if (const int c = aut.compare_trans_identity(cand_trans, inc.via_trans))
                return c < 0;
            if (cand_symbol != inc.via_symbol) return cand_symbol < inc.via_symbol;
        }
        if (inc.parent == UINT32_MAX) return false; // a root incumbent stays
        return prod_key(cand_parent) < prod_key(inc.parent);
    };
    auto reconstruct = [&](std::uint32_t accept) {
        AcceptedConfig config;
        std::uint32_t cursor = accept;
        while (nodes[cursor].parent != UINT32_MAX) {
            const auto& info = nodes[cursor];
            if (info.via_trans == k_no_trans) {
                // ε-move: only possible as the very first step.
                config.leading_epsilon = info.via_epsilon;
            } else {
                config.path.emplace_back(info.via_trans, info.via_symbol);
            }
            cursor = info.parent;
        }
        std::reverse(config.path.begin(), config.path.end());
        config.control_state = state_of(cursor);
        Weight weight = Weight::one();
        if (config.leading_epsilon)
            weight = extend(weight, aut.epsilon(*config.leading_epsilon).weight);
        for (const auto& [tid, symbol] : config.path)
            weight = extend(weight, aut.transition(tid).weight);
        config.weight = std::move(weight);
        return config;
    };

    // A state with no storage has no outgoing edges and is not final: a
    // node on it would settle without successor or acceptance and be no
    // one's parent, so it is never pushed (seq order among the rest holds).
    for (const auto start : starts) {
        if (!aut.has_storage(start)) continue;
        for (const auto n0 : stack_nfa.initial()) {
            const auto index = node_of(start, n0);
            if (nodes[index].dist > 0) {
                nodes[index].dist = 0;
                nodes[index].hops = 0;
                queue.push({0, seq++, 0, index});
            }
        }
    }

    // Canonical runs drain the whole minimal-dist level before choosing the
    // accepting node, instead of returning at the first accepting pop.
    std::optional<std::uint32_t> accept_node;
    std::uint64_t accept_dist = 0;

    while (!queue.empty()) {
        if (accept_node && queue.top().dist > accept_dist) break;
        const auto item = queue.top();
        queue.pop();
        if (item.dist != nodes[item.node].dist ||
            (canonical && item.hops != nodes[item.node].hops))
            continue; // stale
        const auto dist = item.dist;
        const auto hops = item.hops;
        const auto a_state = state_of(item.node);
        const auto n_state = static_cast<std::uint32_t>(item.node % n_nfa);

        if (aut.is_final(a_state) && stack_nfa.states()[n_state].accepting) {
            if (!canonical) {
                telemetry::count(telemetry::Counter::accept_decrease_keys, decrease_keys);
                return reconstruct(item.node);
            }
            if (!accept_node) {
                accept_node = item.node;
                accept_dist = dist;
            } else if (prod_key(item.node) < prod_key(*accept_node)) {
                accept_node = item.node; // same dist: drained level only
            }
            // Fall through: this node may still be a parent candidate on
            // another equal-dist accepting chain (zero-weight edges).
        }

        // ε-moves (post* only; they leave control states and read nothing).
        if (aut.is_control_state(a_state)) {
            for (const auto eps_id : aut.epsilons_from(a_state)) {
                const auto& eps = aut.epsilon(eps_id);
                if (!eps.finalized) continue;
                const auto next_index = node_of(eps.to, n_state);
                const auto next_dist = saturating_add(dist, *eps.weight.as_scalar());
                auto& next = nodes[next_index];
                if (next_dist < next.dist ||
                    (canonical && next_dist == next.dist && hops + 1 < next.hops)) {
                    next.dist = next_dist;
                    next.hops = hops + 1;
                    next.parent = item.node;
                    next.via_trans = k_no_trans;
                    next.via_epsilon = eps_id;
                    next.via_symbol = k_no_symbol;
                    ++decrease_keys;
                    queue.push({next_dist, seq++, hops + 1, next_index});
                } else if (canonical && next_dist == next.dist && hops + 1 == next.hops &&
                           step_less(item.node, k_no_trans, eps_id, k_no_symbol, next)) {
                    next.parent = item.node;
                    next.via_trans = k_no_trans;
                    next.via_epsilon = eps_id;
                    next.via_symbol = k_no_symbol;
                }
            }
        }

        for (const auto tid : aut.transitions_from(a_state)) {
            const auto& trans = aut.transition(tid);
            if (!trans.finalized) continue;
            if (!aut.has_storage(trans.to)) continue;
            const auto trans_weight = *trans.weight.as_scalar();
            for (const auto& edge : stack_nfa.states()[n_state].edges) {
                auto inter = trans.label.intersect(edge.symbols);
                if (!inter) continue;
                const auto symbol = inter->pick(domain);
                if (!symbol) continue;
                const auto next_index = node_of(trans.to, edge.target);
                const auto next_dist = saturating_add(dist, trans_weight);
                auto& next = nodes[next_index];
                if (next_dist < next.dist ||
                    (canonical && next_dist == next.dist && hops + 1 < next.hops)) {
                    next.dist = next_dist;
                    next.hops = hops + 1;
                    next.parent = item.node;
                    next.via_trans = tid;
                    next.via_epsilon = UINT32_MAX;
                    next.via_symbol = *symbol;
                    ++decrease_keys;
                    queue.push({next_dist, seq++, hops + 1, next_index});
                } else if (canonical && next_dist == next.dist && hops + 1 == next.hops &&
                           step_less(item.node, tid, UINT32_MAX, *symbol, next)) {
                    next.parent = item.node;
                    next.via_trans = tid;
                    next.via_epsilon = UINT32_MAX;
                    next.via_symbol = *symbol;
                }
            }
        }
    }
    telemetry::count(telemetry::Counter::accept_decrease_keys, decrease_keys);
    if (accept_node) return reconstruct(*accept_node);
    return std::nullopt;
}

/// General-weight find_accepted: product nodes interned on demand through a
/// flat key→id table (sparse product graphs stay sparse).
std::optional<AcceptedConfig> find_accepted_general(const PAutomaton& aut,
                                                    std::span<const StateId> starts,
                                                    const nfa::Nfa& stack_nfa,
                                                    Symbol domain) {
    struct NodeInfo {
        Weight dist = Weight::infinity();
        std::uint64_t key = 0;
        std::uint32_t hops = UINT32_MAX;     // canonical runs only (see ScalarNode)
        std::uint32_t parent = UINT32_MAX;   // index into `nodes`
        TransId via_trans = k_no_trans;      // k_no_trans => via ε-transition
        std::uint32_t via_epsilon = UINT32_MAX;
        Symbol via_symbol = k_no_symbol;
        bool finalized = false;
    };
    auto key_of = [](StateId a, std::uint32_t n) {
        return (static_cast<std::uint64_t>(a) << 32) | n;
    };
    util::FlatMap64 index;
    std::vector<NodeInfo> nodes;
    auto intern = [&](std::uint64_t key) -> std::uint32_t {
        const auto next = static_cast<std::uint32_t>(nodes.size());
        const auto [id, inserted] = index.try_emplace(key, next);
        if (inserted) {
            NodeInfo node;
            node.key = key;
            nodes.push_back(std::move(node));
        }
        return id;
    };

    struct ProductItem {
        Weight weight;
        std::uint64_t seq;
        std::uint32_t hops;
        std::uint32_t node;
    };
    struct ProductCompare {
        bool canonical = false;
        bool operator()(const ProductItem& a, const ProductItem& b) const {
            const auto cmp = a.weight <=> b.weight;
            if (cmp != std::strong_ordering::equal)
                return cmp == std::strong_ordering::greater;
            if (canonical && a.hops != b.hops) return a.hops > b.hops;
            return a.seq > b.seq;
        }
    };
    const bool canonical = aut.canonical_tiebreaks();
    std::priority_queue<ProductItem, std::vector<ProductItem>, ProductCompare> queue{
        ProductCompare{canonical}};
    std::uint64_t seq = 0;
    std::size_t decrease_keys = 0;

    // See find_accepted_scalar: content keys and the canonical step order for
    // exact (dist, hops) ties; hops keep the parent graph acyclic.
    auto prod_key = [&](std::uint32_t id) {
        return std::pair(aut.canonical_state(static_cast<StateId>(nodes[id].key >> 32)),
                         static_cast<std::uint32_t>(nodes[id].key & 0xFFFFFFFFu));
    };
    auto step_less = [&](std::uint32_t cand_parent, TransId cand_trans,
                         std::uint32_t cand_eps, Symbol cand_symbol,
                         const NodeInfo& inc) {
        const bool cand_is_eps = cand_trans == k_no_trans;
        const bool inc_is_eps = inc.via_trans == k_no_trans;
        if (cand_is_eps != inc_is_eps) return cand_is_eps;
        if (cand_is_eps) {
            if (const int c = aut.compare_eps_identity(cand_eps, inc.via_epsilon))
                return c < 0;
        } else {
            if (const int c = aut.compare_trans_identity(cand_trans, inc.via_trans))
                return c < 0;
            if (cand_symbol != inc.via_symbol) return cand_symbol < inc.via_symbol;
        }
        if (inc.parent == UINT32_MAX) return false; // a root incumbent stays
        return prod_key(cand_parent) < prod_key(inc.parent);
    };
    auto reconstruct = [&](std::uint32_t accept) {
        AcceptedConfig config;
        config.weight = nodes[accept].dist;
        std::uint32_t cursor = accept;
        while (nodes[cursor].parent != UINT32_MAX) {
            const auto& info = nodes[cursor];
            if (info.via_trans == k_no_trans) {
                // ε-move: only possible as the very first step.
                config.leading_epsilon = info.via_epsilon;
            } else {
                config.path.emplace_back(info.via_trans, info.via_symbol);
            }
            cursor = info.parent;
        }
        std::reverse(config.path.begin(), config.path.end());
        config.control_state = static_cast<StateId>(nodes[cursor].key >> 32);
        return config;
    };

    for (const auto start : starts) {
        for (const auto n0 : stack_nfa.initial()) {
            const auto id = intern(key_of(start, n0));
            if (Weight::one() < nodes[id].dist) {
                nodes[id].dist = Weight::one();
                nodes[id].hops = 0;
                queue.push({Weight::one(), seq++, 0, id});
            }
        }
    }

    std::optional<std::uint32_t> accept_node;
    Weight accept_dist = Weight::infinity();

    while (!queue.empty()) {
        if (accept_node && accept_dist < queue.top().weight) break;
        const auto item = queue.top();
        queue.pop();
        auto& node = nodes[item.node];
        if (node.finalized || !(item.weight == node.dist) ||
            (canonical && item.hops != node.hops))
            continue;
        node.finalized = true;
        const Weight dist = node.dist; // copy: `nodes` may relocate below
        const auto hops = item.hops;
        const auto a_state = static_cast<StateId>(node.key >> 32);
        const auto n_state = static_cast<std::uint32_t>(node.key & 0xFFFFFFFFu);

        if (aut.is_final(a_state) && stack_nfa.states()[n_state].accepting) {
            if (!canonical) {
                telemetry::count(telemetry::Counter::accept_decrease_keys, decrease_keys);
                return reconstruct(item.node);
            }
            if (!accept_node) {
                accept_node = item.node;
                accept_dist = dist;
            } else if (prod_key(item.node) < prod_key(*accept_node)) {
                accept_node = item.node; // same dist: drained level only
            }
            // Fall through and keep draining the minimal-dist level.
        }

        // ε-moves (post* only; they leave control states and read nothing).
        if (aut.is_control_state(a_state)) {
            for (const auto eps_id : aut.epsilons_from(a_state)) {
                const auto& eps = aut.epsilon(eps_id);
                if (!eps.finalized) continue;
                const auto next_id = intern(key_of(eps.to, n_state));
                auto next_dist = extend(dist, eps.weight);
                auto& next = nodes[next_id];
                if (next.finalized) continue;
                if (next_dist < next.dist ||
                    (canonical && next_dist == next.dist && hops + 1 < next.hops)) {
                    next.dist = next_dist;
                    next.hops = hops + 1;
                    next.parent = item.node;
                    next.via_trans = k_no_trans;
                    next.via_epsilon = eps_id;
                    next.via_symbol = k_no_symbol;
                    ++decrease_keys;
                    queue.push({std::move(next_dist), seq++, hops + 1, next_id});
                } else if (canonical && next_dist == next.dist && hops + 1 == next.hops &&
                           step_less(item.node, k_no_trans, eps_id, k_no_symbol, next)) {
                    next.parent = item.node;
                    next.via_trans = k_no_trans;
                    next.via_epsilon = eps_id;
                    next.via_symbol = k_no_symbol;
                }
            }
        }

        for (const auto tid : aut.transitions_from(a_state)) {
            const auto& trans = aut.transition(tid);
            if (!trans.finalized) continue;
            for (const auto& edge : stack_nfa.states()[n_state].edges) {
                auto inter = trans.label.intersect(edge.symbols);
                if (!inter) continue;
                const auto symbol = inter->pick(domain);
                if (!symbol) continue;
                const auto next_id = intern(key_of(trans.to, edge.target));
                auto next_dist = extend(dist, trans.weight);
                auto& next = nodes[next_id];
                if (next.finalized) continue;
                if (next_dist < next.dist ||
                    (canonical && next_dist == next.dist && hops + 1 < next.hops)) {
                    next.dist = next_dist;
                    next.hops = hops + 1;
                    next.parent = item.node;
                    next.via_trans = tid;
                    next.via_epsilon = UINT32_MAX;
                    next.via_symbol = *symbol;
                    ++decrease_keys;
                    queue.push({std::move(next_dist), seq++, hops + 1, next_id});
                } else if (canonical && next_dist == next.dist && hops + 1 == next.hops &&
                           step_less(item.node, tid, UINT32_MAX, *symbol, next)) {
                    next.parent = item.node;
                    next.via_trans = tid;
                    next.via_epsilon = UINT32_MAX;
                    next.via_symbol = *symbol;
                }
            }
        }
    }
    telemetry::count(telemetry::Counter::accept_decrease_keys, decrease_keys);
    if (accept_node) return reconstruct(*accept_node);
    return std::nullopt;
}

} // namespace

std::optional<AcceptedConfig> find_accepted(const PAutomaton& aut,
                                            std::span<const StateId> starts,
                                            const nfa::Nfa& stack_nfa, Symbol domain,
                                            SolverWorkspace* workspace) {
    AALWINES_SPAN("find_accepted");
    const std::size_t n_product = aut.dense_count() * stack_nfa.states().size();
    if (aut.all_scalar_weights() && n_product > 0 && n_product <= k_flat_search_cap) {
        if (workspace != nullptr) {
            workspace->search.reset();
            return find_accepted_scalar(aut, starts, stack_nfa, domain, workspace->search);
        }
        util::Arena local_arena;
        return find_accepted_scalar(aut, starts, stack_nfa, domain, local_arena);
    }
    return find_accepted_general(aut, starts, stack_nfa, domain);
}

namespace {
constexpr std::size_t k_unroll_guard = 100'000'000;

std::optional<Symbol> choose_pre_symbol(const Pda& pda, const EdgeLabel& label,
                                        const Rule& rule) {
    auto inter = label.intersect(pda.pre_set(rule.pre));
    if (!inter) return std::nullopt;
    return inter->pick(pda.alphabet_size());
}
} // namespace

std::optional<PdaWitness> unroll_post_star(const PAutomaton& aut,
                                           const AcceptedConfig& config) {
    const Pda& pda = aut.pda();
    std::deque<std::pair<TransId, Symbol>> path(config.path.begin(), config.path.end());
    std::vector<RuleId> rules_reversed;

    if (config.leading_epsilon) {
        // The accepting run started with ε(p → q): the last derivation step
        // was the pop that created it; undo it and continue normally.
        const auto& eps = aut.epsilon(*config.leading_epsilon);
        if (eps.prov.kind != Provenance::Kind::PostEps) return std::nullopt;
        const auto& rule = pda.rule(eps.prov.rule);
        const auto& prev = aut.transition(eps.prov.a);
        const auto pre_symbol = choose_pre_symbol(pda, prev.label, rule);
        if (!pre_symbol) return std::nullopt;
        path.push_front({eps.prov.a, *pre_symbol});
        rules_reversed.push_back(eps.prov.rule);
    }

    for (std::size_t guard = 0; guard < k_unroll_guard; ++guard) {
        if (path.empty()) return std::nullopt; // configurations are never empty here
        const auto [tid, symbol] = path.front();
        const auto& trans = aut.transition(tid);
        switch (trans.prov.kind) {
            case Provenance::Kind::Initial: {
                PdaWitness witness;
                witness.initial_state = trans.from;
                for (const auto& [id, s] : path) witness.initial_stack.push_back(s);
                witness.rules.assign(rules_reversed.rbegin(), rules_reversed.rend());
                telemetry::count(telemetry::Counter::witness_unroll_steps,
                                 witness.rules.size());
                return witness;
            }
            case Provenance::Kind::PostSwap: {
                const auto& rule = pda.rule(trans.prov.rule);
                const auto& prev = aut.transition(trans.prov.a);
                const auto pre_symbol = choose_pre_symbol(pda, prev.label, rule);
                if (!pre_symbol) return std::nullopt;
                path.front() = {trans.prov.a, *pre_symbol};
                rules_reversed.push_back(trans.prov.rule);
                break;
            }
            case Provenance::Kind::PostPushT1: {
                if (path.size() < 2) return std::nullopt;
                const auto [t2_id, symbol2] = path[1];
                const auto& t2 = aut.transition(t2_id);
                if (t2.prov.kind != Provenance::Kind::PostPushT2) return std::nullopt;
                const auto& rule = pda.rule(t2.prov.rule);
                const auto& prev = aut.transition(t2.prov.a);
                Symbol pre_symbol;
                if (rule.label2 == k_same_symbol) {
                    pre_symbol = symbol2; // the matched symbol stayed below the push
                } else {
                    const auto chosen = choose_pre_symbol(pda, prev.label, rule);
                    if (!chosen) return std::nullopt;
                    pre_symbol = *chosen;
                }
                path.pop_front();
                path.pop_front();
                path.push_front({t2.prov.a, pre_symbol});
                rules_reversed.push_back(t2.prov.rule);
                break;
            }
            case Provenance::Kind::PostCombine: {
                const auto& eps = aut.epsilon(trans.prov.a);
                if (eps.prov.kind != Provenance::Kind::PostEps) return std::nullopt;
                const auto& rule = pda.rule(eps.prov.rule);
                const auto& prev = aut.transition(eps.prov.a);
                const auto pre_symbol = choose_pre_symbol(pda, prev.label, rule);
                if (!pre_symbol) return std::nullopt;
                path.front() = {trans.prov.b, symbol};
                path.push_front({eps.prov.a, *pre_symbol});
                rules_reversed.push_back(eps.prov.rule);
                break;
            }
            default:
                return std::nullopt; // PushT2/Eps/pre* kinds cannot lead a config path
        }
    }
    return std::nullopt;
}

std::optional<PdaWitness> unroll_pre_star(const PAutomaton& aut,
                                          const AcceptedConfig& config) {
    const Pda& pda = aut.pda();
    if (config.leading_epsilon) return std::nullopt; // pre* automata have no ε
    PdaWitness witness;
    witness.initial_state = config.control_state;
    for (const auto& [id, symbol] : config.path) witness.initial_stack.push_back(symbol);

    std::deque<std::pair<TransId, Symbol>> path(config.path.begin(), config.path.end());
    for (std::size_t guard = 0; guard < k_unroll_guard; ++guard) {
        if (path.empty()) {
            telemetry::count(telemetry::Counter::witness_unroll_steps,
                             witness.rules.size());
            return witness; // stack fully consumed into the target set
        }
        const auto [tid, symbol] = path.front();
        const auto& trans = aut.transition(tid);
        switch (trans.prov.kind) {
            case Provenance::Kind::Initial:
                telemetry::count(telemetry::Counter::witness_unroll_steps,
                                 witness.rules.size());
                return witness; // remaining path lies inside the target automaton
            case Provenance::Kind::PrePop: {
                witness.rules.push_back(trans.prov.rule);
                path.pop_front();
                break;
            }
            case Provenance::Kind::PreSwap: {
                const auto& rule = pda.rule(trans.prov.rule);
                witness.rules.push_back(trans.prov.rule);
                path.front() = {trans.prov.a, rule.label1};
                break;
            }
            case Provenance::Kind::PrePush: {
                const auto& rule = pda.rule(trans.prov.rule);
                witness.rules.push_back(trans.prov.rule);
                const Symbol below =
                    rule.label2 == k_same_symbol ? symbol : rule.label2;
                path.pop_front();
                path.push_front({trans.prov.b, below});
                path.push_front({trans.prov.a, rule.label1});
                break;
            }
            default:
                return std::nullopt; // post* kinds cannot appear in a pre* automaton
        }
    }
    return std::nullopt;
}

std::optional<std::vector<std::pair<StateId, std::vector<Symbol>>>>
replay_witness(const Pda& pda, const PdaWitness& witness) {
    std::vector<std::pair<StateId, std::vector<Symbol>>> configs;
    StateId state = witness.initial_state;
    // Internal stack representation: top at back.
    std::vector<Symbol> stack(witness.initial_stack.rbegin(), witness.initial_stack.rend());

    auto record = [&]() {
        std::vector<Symbol> top_first(stack.rbegin(), stack.rend());
        configs.emplace_back(state, std::move(top_first));
    };
    record();

    for (const auto rule_id : witness.rules) {
        const auto& rule = pda.rule(rule_id);
        if (rule.from != state || stack.empty()) return std::nullopt;
        const Symbol top = stack.back();
        if (!pda.pre_set(rule.pre).contains(top)) return std::nullopt;
        switch (rule.op) {
            case Rule::OpKind::Pop: stack.pop_back(); break;
            case Rule::OpKind::Swap: stack.back() = rule.label1; break;
            case Rule::OpKind::Push: {
                stack.back() = rule.label2 == k_same_symbol ? top : rule.label2;
                stack.push_back(rule.label1);
                break;
            }
        }
        state = rule.to;
        record();
    }
    return configs;
}

} // namespace aalwines::pda
