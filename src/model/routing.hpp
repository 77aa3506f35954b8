#pragma once
// Routing table τ : E × L → (2^(E×Op*))*  (paper, Definition 2).
//
// For every (incoming link, top-of-stack label) the table yields a priority-
// ordered sequence of traffic-engineering groups; each group is a set of
// (outgoing link, operation sequence) alternatives among which the router
// chooses nondeterministically.  Lower group index = higher priority; a
// group is only consulted when every link of all higher-priority groups has
// failed (local fast-failover semantics).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/label.hpp"
#include "model/snapshot.hpp"
#include "model/topology.hpp"

namespace aalwines {

/// A single MPLS label-stack operation.
struct Op {
    enum class Kind : std::uint8_t { Push, Swap, Pop };
    Kind kind = Kind::Pop;
    Label label = k_invalid_label; ///< operand for Push/Swap; unused for Pop

    [[nodiscard]] static Op push(Label l) { return {Kind::Push, l}; }
    [[nodiscard]] static Op swap(Label l) { return {Kind::Swap, l}; }
    [[nodiscard]] static Op pop() { return {Kind::Pop, k_invalid_label}; }

    bool operator==(const Op&) const = default;
};

/// Net stack-height change of an operation sequence (pushes minus pops).
[[nodiscard]] int stack_delta(const std::vector<Op>& ops);

/// Number of tunnels opened: the positive part of the stack-height increase,
/// counted push-by-push (matches Tunnels(σ) of paper §3 per forwarding step).
[[nodiscard]] std::uint64_t tunnels_opened(const std::vector<Op>& ops);

[[nodiscard]] std::string describe_ops(const LabelTable& labels, const std::vector<Op>& ops);

/// One (outgoing link, operation sequence) alternative within a TE group.
struct ForwardingRule {
    LinkId out_link = k_invalid_id;
    std::vector<Op> ops;

    bool operator==(const ForwardingRule&) const = default;
};

/// A traffic-engineering group: the set of equally-preferred alternatives.
using TeGroup = std::vector<ForwardingRule>;

/// Priority-ordered sequence of TE groups for one (link, label) pair.
using RoutingEntry = std::vector<TeGroup>;

/// Entries are held behind shared_ptr in a sorted flat vector, so copying a
/// table is a *structural* copy: one contiguous allocation plus refcount
/// bumps, the entries themselves are shared.  Mutators clone an entry
/// before touching it when any other table still references it
/// (copy-on-write) — this is what makes the what-if delta overlay
/// (src/delta/) cheap: a patched generation shares every untouched entry
/// with its base, and copying a network costs O(entries) pointer copies,
/// not O(rules) deep copies.  Inserts land in a small unsorted tail that is
/// merged into the sorted body once it grows past a threshold (amortised
/// O(n log n) bulk construction, O(log n) lookups).
class RoutingTable {
public:
    /// Append a rule to the group with 1-based `priority` for (in_link, label).
    /// Missing intermediate groups are created empty and skipped at lookup.
    void add_rule(LinkId in_link, Label label, std::uint32_t priority,
                  LinkId out_link, std::vector<Op> ops);

    /// Remove the whole entry for (in_link, label); false when none exists.
    bool remove_entry(LinkId in_link, Label label);

    /// Remove every forwarding rule matching `out_link` (and, when non-null,
    /// exactly `ops`) from the entry's groups.  Emptied groups stay in place
    /// — lookup already skips them, and erasing one would shift the
    /// priorities of the groups below.  An entry left with no rules at all
    /// is erased.  Returns the number of rules removed.
    std::size_t remove_rule(LinkId in_link, Label label, LinkId out_link,
                            const std::vector<Op>* ops = nullptr);

    /// The entry for (in_link, label), or nullptr when none exists.
    [[nodiscard]] const RoutingEntry* entry(LinkId in_link, Label label) const;

    /// Invoke `fn(in_link, label, entry)` for every entry (iteration order is
    /// unspecified but deterministic for a fixed table).
    void for_each(const std::function<void(LinkId, Label, const RoutingEntry&)>& fn) const;

    /// Invoke `fn(label, entry)` for every entry of one incoming link, in the
    /// same relative order `for_each` would visit them (so a per-link index
    /// rebuilt through this matches one built by a full scan).
    void for_each_of(LinkId in_link,
                     const std::function<void(Label, const RoutingEntry&)>& fn) const;

    /// Total number of forwarding rules across all entries and groups.
    [[nodiscard]] std::size_t rule_count() const;

    /// Number of (link, label) entries.
    [[nodiscard]] std::size_t entry_count() const noexcept {
        return _sorted.size() + _tail.size();
    }

    /// Check referential integrity against `topology` and header-validity of
    /// every operation sequence: each rule's out-link must leave the router
    /// the in-link enters.  Throws model_error on violation.
    void validate(const Topology& topology) const;

    /// Content stamp: changes with every mutation (see ContentStamp).
    [[nodiscard]] std::uint64_t stamp() const noexcept { return _stamp.value(); }

private:
    /// One (key, shared entry) pair; the entry handle is never null.
    using Slot = std::pair<std::uint64_t, std::shared_ptr<RoutingEntry>>;

    static std::uint64_t key_of(LinkId in_link, Label label) {
        return (static_cast<std::uint64_t>(in_link) << 32) | label;
    }

    [[nodiscard]] const Slot* find_slot(std::uint64_t key) const;
    [[nodiscard]] Slot* find_slot(std::uint64_t key);

    /// Merge `_tail` into `_sorted` (keys are unique across both).
    void compact();

    /// The entry in `slot`, exclusively owned by this table — clones it
    /// first when another table still shares it.  (use_count() == 1 proves
    /// exclusivity: a reference can only be gained by copying a table that
    /// already holds one, so a sole reference can never grow behind our
    /// back.)
    static RoutingEntry& own_entry(Slot& slot);

    std::vector<Slot> _sorted; ///< key-ascending
    std::vector<Slot> _tail;   ///< recent inserts, unsorted, bounded
    ContentStamp _stamp;
};

/// A complete MPLS network: topology, label alphabet and routing function
/// (paper, Definition 2).
struct Network {
    std::string name;
    Topology topology;
    LabelTable labels;
    RoutingTable routing;
    /// Data derived from this snapshot and memoized on it (the translation
    /// index of src/verify/translation.hpp), keyed by content_key().
    SnapshotMemo derived;

    /// The content stamps `derived` is keyed by.  Label ids are never
    /// re-typed, so minting a label changes nothing a memo depends on.
    [[nodiscard]] SnapshotMemo::Key content_key() const noexcept {
        return {routing.stamp(), topology.stamp()};
    }
};

} // namespace aalwines
