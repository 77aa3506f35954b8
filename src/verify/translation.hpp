#pragma once
// Translation of (MPLS network, query) into a weighted pushdown system
// (paper §4.2): control states are (last traversed link, path-NFA state)
// pairs — extended with an accumulated failure counter for the
// under-approximation — and the stack is the label stack.
//
// Over-approximation: a TE group whose activation requires c locally failed
// links contributes rules whenever c ≤ k; the total across routers may
// exceed k, hence over-approximation.  Under-approximation: the counter in
// the control state bounds the *sum* of local failures along the trace,
// which may double-count a link revisited in a loop, hence
// under-approximation (paper §4.2).

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "model/quantity.hpp"
#include "model/trace.hpp"
#include "nfa/nfa.hpp"
#include "pda/pautomaton.hpp"
#include "pda/reduction.hpp"
#include "pda/solver.hpp"
#include "query/query.hpp"

namespace aalwines::verify {

enum class Approximation : std::uint8_t { Over, Under, Exact };

/// The three query NFAs every translation needs: compiling them (regex →
/// Thompson → ε-elimination, plus two intersections with the valid-header
/// language H) is independent of the approximation, so one verify() call
/// compiles them once and shares them across the over/under dual passes —
/// and across every scenario of the exact engine.
struct CompiledNfas {
    nfa::Nfa path;           ///< B, over links
    nfa::Nfa initial_header; ///< L(a) ∩ H, over labels
    nfa::Nfa final_header;   ///< L(c) ∩ H, over labels
};

[[nodiscard]] CompiledNfas compile_query_nfas(const Network& network,
                                              const query::Query& query);

/// A frozen, session-independent image of a saturation's link footprint —
/// everything `footprint_touches` + `initial_links_touch` consult, captured
/// as three bitsets so the carry-over test outlives the live translation
/// (which may rebase away afterwards).  Valid across link-state flips only:
/// those never edit routing entries, so the out-link relation recorded at
/// snapshot time holds for every scenario of the same base network.
struct LinkFootprint {
    std::vector<bool> materialized; ///< link carries a materialized control state
    std::vector<bool> out_links;    ///< out-link of some materialized link's rule
    std::vector<bool> initial;      ///< path-NFA start candidate links

    /// Whether toggling the up/down state of `toggled` links could change
    /// the snapshotted saturation — false means its result provably carries
    /// over to the toggled network (same argument as footprint_touches).
    [[nodiscard]] bool touches(const std::vector<LinkId>& toggled) const {
        for (const auto link : toggled) {
            if (link < materialized.size() && materialized[link]) return true;
            if (link < out_links.size() && out_links[link]) return true;
            if (link < initial.size() && initial[link]) return true;
        }
        return false;
    }
};

/// The query-independent half of the network→PDA translation, computed once
/// per network snapshot and memoized on it (Network::derived).  Per link it
/// holds the label-sorted routing entries and the chain shapes of their
/// forwarding rules — how many rules and interior states each rule's op
/// chain emits, as walked by the translation itself — aggregated by
/// (out-link, local failures): the two things a rule's copy count per query
/// depends on (path-NFA moves over the out-link × failure slots left after
/// its local failures).  A query then sizes its eager-equivalent rule total
/// and its exact chain-interior pool in O(links × path-NFA moves) with no
/// chain walk, and its lazy states look their entries up here.
///
/// The Over/Under shapes assume the snapshot's link states: rules of a down
/// in-link and rules over a down out-link are left out, and a group's local
/// failures count the distinct up out-links of the groups above it.  A
/// what-if delta recomputes only the rows of the links it reaches (see
/// carry_over); the rest are shared with the base snapshot's index.
class TranslationIndex {
public:
    /// Chains of a link's eligible forwarding rules over one out-link with
    /// one local-failure count, summed.
    struct Load {
        LinkId out_link = k_invalid_id;
        std::uint32_t local_failures = 0;
        std::size_t rules = 0;     ///< PDA rules the chains emit
        std::size_t interiors = 0; ///< chain-interior states they allocate
        bool operator==(const Load&) const = default;
    };
    struct Row {
        std::vector<Label> labels;                ///< entry labels, ascending
        std::vector<const RoutingEntry*> entries; ///< parallel to `labels`
        std::vector<Load> loads;                  ///< ascending (out_link, local_failures)
        /// Distinct out-links of every rule of every entry, whatever the
        /// link states (ascending).
        std::vector<LinkId> out_links;
        bool operator==(const Row&) const = default;
    };

    /// Build from scratch over `network` (not memoized; see of()).
    explicit TranslationIndex(const Network& network);

    /// The index of `network`'s current content: the memoized one, or one
    /// built now and memoized — exactly once, however many threads ask.
    [[nodiscard]] static std::shared_ptr<const TranslationIndex> of(const Network& network);

    /// Memoize on `next` the index of `base` re-targeted at it, recomputing
    /// only the rows a delta can have changed: the links whose routing
    /// entries changed (`entry_links`), the links whose up/down state
    /// flipped (`state_links`), and every link with a rule over a flipped
    /// one.  `next` must be a patched copy of `base` with the same link set
    /// (a minted label is fine: it only appears in changed entries).  No-op
    /// when `base` has no current index — the first query on `next` then
    /// builds one — or when `next` already has one.
    static void carry_over(const Network& base, const Network& next,
                           const std::vector<LinkId>& entry_links,
                           const std::vector<LinkId>& state_links);

    [[nodiscard]] const Row& row(LinkId link) const { return *_rows[link]; }
    [[nodiscard]] std::size_t link_count() const noexcept { return _rows.size(); }
    /// In-links holding a rule over `out` (ascending): the inverse of
    /// Row::out_links.
    [[nodiscard]] const std::vector<LinkId>& links_into(LinkId out) const {
        return _links_into[out];
    }

    /// Content equality (rows compare entries by address: two indexes of
    /// one snapshot are equal iff they describe it identically).
    [[nodiscard]] bool operator==(const TranslationIndex& other) const;

private:
    void link_into(LinkId in_link, const Row& row);

    std::vector<std::shared_ptr<const Row>> _rows; ///< shared across carried-over snapshots
    std::vector<std::vector<LinkId>> _links_into;
};

struct TranslationOptions {
    Approximation approximation = Approximation::Over;
    /// Weight vector for the minimum-witness problem; nullptr = unweighted.
    const WeightExpr* weights = nullptr;
    /// For Approximation::Exact: the concrete failure scenario.  The PDA
    /// then encodes Definition 4 exactly — only active links, only the
    /// first active TE group per entry (deciding the query requires
    /// enumerating every such scenario, which is exponential in k; this is
    /// what the over/under pair avoids).
    const std::set<LinkId>* failed_links = nullptr;
    /// Pre-compiled query NFAs (see CompiledNfas); nullptr = compile here.
    const CompiledNfas* nfas = nullptr;
    /// Demand-driven rule materialization: construction emits *no* rules and
    /// registers the translation as the PDA's label-granular RuleProvider
    /// instead; the rules leaving a control state (e, q, f) for one top
    /// label γ — routing entry τ(e, γ)'s TE-group expansion × path-NFA moves
    /// × failure slots, including the op chains — are generated when
    /// post*/pre* first pops a transition with top γ out of that state.
    /// Chain-interior states are pre-allocated from an exactly-sized pool
    /// (sized from the snapshot's TranslationIndex), so the state space is
    /// fixed up front and the P-automaton can share the id space safely.
    /// reduce() becomes a no-op: the demand filter subsumes the
    /// top-of-stack pass (see reduction.cpp).
    bool lazy = false;
};

class Translation : public pda::RuleProvider {
public:
    Translation(const Network& network, const query::Query& query,
                const TranslationOptions& options);
    /// Lazy mode registers `this` as the PDA's rule provider, so the
    /// translation must stay put for the PDA's lifetime.
    Translation(const Translation&) = delete;
    Translation& operator=(const Translation&) = delete;

    [[nodiscard]] pda::Pda& pda() noexcept { return *_pda; }
    [[nodiscard]] const pda::Pda& pda() const noexcept { return *_pda; }

    /// Run the top-of-stack reduction at `level` (0 = off).  Idempotent: a
    /// second call returns the first call's stats without touching the PDA,
    /// so a translation shared across phases reduces exactly once.  A lazy
    /// translation skips the pass (stats report zero rules removed): the
    /// demand filter at materialization plays its role — see reduction.cpp.
    pda::ReductionStats reduce(int level);

    /// Rule count before the first reduce() ran (== rule_count() until
    /// then); for a lazy translation the eager-equivalent total.
    [[nodiscard]] std::size_t rules_before_reduction() const {
        if (_lazy) return _total_rules;
        return _reduced ? _reduce_stats.rules_before : _pda->rule_count();
    }

    /// Demand-driven construction active (TranslationOptions::lazy).
    [[nodiscard]] bool lazy() const noexcept { return _lazy; }

    /// Re-target this lazy translation at a patched snapshot of the same
    /// network (identical link set and label alphabet — a delta that mints a
    /// label must fall back to a cold rebuild).  The two bitmaps split the
    /// delta by how it reaches a control state's rules:
    ///
    ///   `dirty`           links whose *own* entries emit different rules —
    ///                     routing entries changed, up/down flipped (a down
    ///                     in-link emits nothing), or (weighted) anything
    ///                     that reprices its rules.
    ///   `behavior_dirty`  links whose role as an *out-link* changed — an
    ///                     up/down flip (down out-links are skipped and drop
    ///                     out of the failure budget) or (weighted) a
    ///                     distance change (reprices every rule over it).
    ///                     A pure routing-entry delta never sets these bits:
    ///                     forwarding *into* an edited link is unaffected.
    ///
    /// The affected control states — a dirty link's, or one whose entries
    /// forward over a behavior-dirty link — are un-materialized together
    /// with their chain interiors, the translation switches to the new
    /// snapshot's TranslationIndex (carried over from the old one when the
    /// delta layer made the snapshot), the interior pool grows by the
    /// affected links' new contribution, and the initial states are
    /// recomputed (a down link never starts a trace).  The next saturation
    /// re-demands exactly the invalidated frontier; by the match-order
    /// argument in pda::Pda::invalidate_states the answer is byte-identical
    /// to a cold recompile against the patched network.
    void rebase(const Network& network, const std::vector<bool>& dirty,
                const std::vector<bool>& behavior_dirty);

    /// Whether any *materialized* control state would be invalidated by a
    /// rebase over the bitmaps — false means the previous result provably
    /// carries over (if the initial states don't touch the delta either).
    [[nodiscard]] bool footprint_touches(const std::vector<bool>& dirty,
                                         const std::vector<bool>& behavior_dirty) const;

    /// Whether any link the path NFA can start with is flagged in `dirty`
    /// (candidate links, before the up/down filter — a link-state flip on a
    /// candidate changes initial-state membership, a distance change on one
    /// changes the weighted entry weight).
    [[nodiscard]] bool initial_links_touch(const std::vector<bool>& dirty) const;

    /// OR this translation's current footprint into `fp` (sized to the link
    /// count on first use).  Call right after a verify so the bitsets cover
    /// everything that saturation materialized; see LinkFootprint for the
    /// validity contract.
    void add_to_footprint(LinkFootprint& fp) const;

    /// Rules the eager pipeline would emit before reduction.  For a lazy
    /// translation this is summed from the TranslationIndex's chain shapes
    /// at construction; compare with pda().rule_count() (the materialized
    /// subset) for the demand savings.
    [[nodiscard]] std::size_t total_rules() const noexcept { return _total_rules; }

    /// Chain-interior states of the lazy pool (exactly the eager build's
    /// interiors, plus each rebase's affected-link contribution) not yet
    /// handed out.
    [[nodiscard]] std::size_t interior_pool_unused() const noexcept;

    /// The snapshot index this translation reads its entries from.
    [[nodiscard]] const TranslationIndex& index() const noexcept { return *_index; }

    /// RuleProvider: never asked — chain interiors are materialized with
    /// their owning chain and control states label by label.
    void materialize_state(pda::Pda& pda, pda::StateId state) override;
    /// RuleProvider: a control state's labels are its link's entry labels;
    /// chain interiors (materialized with their chain) have none.
    [[nodiscard]] const std::vector<pda::Symbol>* state_labels(
        pda::StateId state) const override;
    /// RuleProvider: emit the rules of one routing entry leaving `state`.
    void materialize_label(pda::Pda& pda, pda::StateId state, std::size_t index) override;

    /// P-automaton accepting the initial configurations
    /// {((e₁,q₁,0), h) : h ∈ L(a) ∩ H} — the post* source.
    [[nodiscard]] pda::PAutomaton make_initial_automaton() const;

    /// P-automaton accepting the final configurations
    /// {((e,q,f), h) : q accepting, h ∈ L(c) ∩ H} — the pre* source.
    [[nodiscard]] pda::PAutomaton make_final_automaton() const;

    /// Same automata built over `backend` — a PDA with identical control
    /// states (e.g. the Moped round-tripped copy of this translation).
    /// `concrete_edges` materializes every symbolic edge set into concrete
    /// per-symbol edges (checkers without symbolic alphabets need this).
    [[nodiscard]] pda::PAutomaton make_initial_automaton(const pda::Pda& backend,
                                                         bool concrete_edges = false) const;
    [[nodiscard]] pda::PAutomaton make_final_automaton(const pda::Pda& backend,
                                                       bool concrete_edges = false) const;

    /// Control states where the path NFA accepts (post* acceptance starts).
    [[nodiscard]] const std::vector<pda::StateId>& accepting_states() const {
        return _accepting_states;
    }
    /// Control states of initial configurations (pre* acceptance starts).
    [[nodiscard]] const std::vector<pda::StateId>& initial_states() const {
        return _initial_states;
    }

    [[nodiscard]] const nfa::Nfa& initial_header_nfa() const { return _nfa_a; }
    [[nodiscard]] const nfa::Nfa& final_header_nfa() const { return _nfa_c; }

    /// Rebuild the network trace from a PDA witness (either direction).
    [[nodiscard]] std::optional<Trace> witness_to_trace(const pda::PdaWitness& witness) const;

    /// Same, for a witness whose rule ids refer to `backend` (a round-trip
    /// or concrete expansion of this translation's PDA; tags and control
    /// states must be preserved).
    [[nodiscard]] std::optional<Trace> witness_to_trace(const pda::PdaWitness& witness,
                                                        const pda::Pda& backend) const;

private:
    struct ControlInfo {
        LinkId link = k_invalid_id;     ///< last traversed link (chain: the *next* link)
        std::uint32_t nfa_state = 0;
        std::uint32_t failures = 0;     ///< accumulated (under-approximation only)
        bool chain = false;             ///< intermediate state of an op chain
    };

    /// Per-rule bookkeeping for trace reconstruction: the first rule of each
    /// forwarding chain records the link the packet is sent through.
    struct StepInfo {
        LinkId out_link = k_invalid_id;
        std::uint32_t local_failures = 0;
    };

    /// "No filter" sentinel for the per-state emission filters below.
    static constexpr std::uint32_t k_any = UINT32_MAX;

    void build_control_states();
    /// (Re)compute the post* source states from the path NFA's initial
    /// edges, excluding links a trace can never start on (administratively
    /// down; Exact: in the scenario's failure set).
    void compute_initial_states();
    void build_move_index();
    void build_rules();
    /// Eager-equivalent rule/interior counts of one in-link's entries.
    struct LinkLoad {
        std::size_t rules = 0;
        std::size_t interiors = 0;
    };
    /// Over/Under: from `index`'s aggregates (no chain walk).  Exact: the
    /// scenario picks one group per entry, so its chains are walked.
    [[nodiscard]] LinkLoad link_load(const TranslationIndex& index, LinkId in_link) const;
    /// Append `count` chain-interior states to the pool as a new range.
    void grow_pool(std::size_t count);
    /// Links whose control states a rebase must invalidate: the link itself
    /// is dirty, or one of its entries forwards over a behavior-dirty link
    /// (out-link state/distance changes alter the emitted rules or their
    /// weights without touching the in-link's own entries).
    [[nodiscard]] std::vector<char> affected_links(
        const std::vector<bool>& dirty, const std::vector<bool>& behavior_dirty) const;
    /// Emit the rules of one routing entry.  `only_q`/`only_f` restrict
    /// emission to rules leaving control state (in_link, only_q, only_f) —
    /// the per-state slice lazy materialization demands; `k_any` disables a
    /// filter (the eager whole-entry pass).
    void add_entry_rules(LinkId in_link, Label label, const RoutingEntry& groups,
                         std::uint32_t only_q = k_any, std::uint32_t only_f = k_any);
    /// Invoke `fn(rule, local_failures)` for every forwarding rule of the
    /// entry that is eligible under the approximation (TE-priority and
    /// failure-budget handling shared by emission and Exact pool sizing).
    template <typename RuleFn>
    void for_entry_rules(LinkId in_link, const RoutingEntry& groups, RuleFn&& fn) const;
    struct EmitSink;
    void add_chain(pda::StateId from, Label top, const ForwardingRule& rule,
                   pda::StateId target, pda::Weight weight, std::uint32_t tag);
    /// A fresh chain-interior state: allocated eagerly, or drawn from the
    /// pre-sized pool in lazy mode (and marked materialized — its rules are
    /// emitted with the chain that owns it).
    [[nodiscard]] pda::StateId new_chain_state();
    [[nodiscard]] pda::Weight make_step_weight(const ForwardingRule& rule,
                                               std::uint64_t local_failures) const;
    [[nodiscard]] pda::Weight make_initial_weight(LinkId first_link) const;
    [[nodiscard]] pda::StateId control_state(LinkId link, std::uint32_t nfa_state,
                                             std::uint32_t failures) const;
    /// Attach a header NFA copy reachable from `sources`; used for both the
    /// initial and the final automaton.
    void attach_header_nfa(pda::PAutomaton& aut, const nfa::Nfa& header_nfa,
                           const std::vector<pda::StateId>& sources, bool weighted_entry,
                           bool concrete_edges) const;

    const Network* _network;
    const query::Query* _query;
    TranslationOptions _options;

    nfa::Nfa _nfa_b;            // path NFA over links
    nfa::Nfa _nfa_a;            // L(a) ∩ H over labels
    nfa::Nfa _nfa_c;            // L(c) ∩ H over labels
    /// The path NFA inverted by consumed link: (q, q') per move on `link`.
    /// Built once per translation so rule emission does not re-scan every
    /// NFA edge for every forwarding rule.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> _moves_by_link;
    std::uint32_t _failure_slots = 1; // k+1 for Under, 1 for Over

    std::unique_ptr<pda::Pda> _pda;
    std::vector<ControlInfo> _control_info; // per PDA state
    std::vector<StepInfo> _steps;           // indexed by rule tag
    std::vector<pda::StateId> _accepting_states;
    std::vector<pda::StateId> _initial_states;
    bool _reduced = false;
    pda::ReductionStats _reduce_stats;

    bool _lazy = false;
    std::size_t _total_rules = 0; ///< eager-equivalent rule count (pre-reduction)
    /// The snapshot's entries and chain shapes (RoutingEntry pointers stay
    /// stable: the routing table is const for the translation's lifetime).
    std::shared_ptr<const TranslationIndex> _index;
    /// Chain-interior state pool: half-open [first, second) ranges consumed
    /// in order.  Construction allocates one exactly-sized range; each
    /// rebase appends a fresh (non-contiguous) range covering the affected
    /// links' full new contribution — unconsumed slack telescopes, so the
    /// pool always suffices while interiors of invalidated chains leak as
    /// inert rule-less states (they only inflate the state count, never an
    /// answer).  Materialization never adds PDA states mid-saturation.
    std::vector<std::pair<pda::StateId, pda::StateId>> _pools;
    std::size_t _pool_cursor = 0;
};

/// Memoizes the network→PDA translation across the over/under dual passes
/// of one verify() call.  The query NFAs are compiled once and shared, and
/// when the query's failure budget is zero the two approximations emit
/// rule-for-rule identical PDAs (both have a single failure slot), so they
/// share a single Translation — the second phase then skips translation and
/// reduction entirely.
class TranslationCache {
public:
    TranslationCache(const Network& network, const query::Query& query,
                     const WeightExpr* weights, bool lazy = false);

    /// Same, adopting pre-compiled query NFAs instead of compiling them
    /// here.  The sweep engine compiles one CompiledNfas per query template
    /// and shares it across every (failure budget, scenario) cell — the
    /// NFAs depend only on the query's regexes and the label table, never
    /// on k or link state, so the share is exact.  `nfas` must be non-null
    /// and compiled from an identical query against a network with the same
    /// link ids and label table.
    TranslationCache(const Network& network, const query::Query& query,
                     const WeightExpr* weights, bool lazy,
                     std::shared_ptr<const CompiledNfas> nfas);

    /// The memoized translation for `approximation` (Over or Under only;
    /// exact scenarios each need their own Translation — share nfas()).
    [[nodiscard]] Translation& translation(Approximation approximation);

    [[nodiscard]] const CompiledNfas& nfas() const {
        return _shared_nfas != nullptr ? *_shared_nfas : _nfas;
    }

    /// Re-target every built translation at a patched network snapshot (see
    /// Translation::rebase); never-built slots simply build against the new
    /// network on first demand.  The caller keeps both network snapshots
    /// alive across the call and guarantees no label was minted.
    void rebase(const Network& network, const std::vector<bool>& dirty,
                const std::vector<bool>& behavior_dirty);

    /// The slots as built so far (nullptr when the phase never ran); the
    /// incremental re-verifier inspects their demanded footprints.
    [[nodiscard]] Translation* over_or_null() noexcept { return _over.get(); }
    [[nodiscard]] Translation* under_or_null() noexcept { return _under.get(); }

    [[nodiscard]] const Network& network() const noexcept { return *_network; }

private:
    const Network* _network;
    const query::Query* _query;
    const WeightExpr* _weights;
    bool _lazy;
    CompiledNfas _nfas; ///< empty when _shared_nfas is set
    std::shared_ptr<const CompiledNfas> _shared_nfas;
    std::unique_ptr<Translation> _over;
    std::unique_ptr<Translation> _under;
};

/// The valid-header language H = mpls* smpls ip | ip as a regex (top-first).
[[nodiscard]] nfa::Regex valid_header_regex(const LabelTable& labels);

} // namespace aalwines::verify
