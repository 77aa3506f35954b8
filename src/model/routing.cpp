#include "model/routing.hpp"

#include <algorithm>

namespace aalwines {

int stack_delta(const std::vector<Op>& ops) {
    int delta = 0;
    for (const auto& op : ops) {
        if (op.kind == Op::Kind::Push) ++delta;
        if (op.kind == Op::Kind::Pop) --delta;
    }
    return delta;
}

std::uint64_t tunnels_opened(const std::vector<Op>& ops) {
    // Tunnels(σ) sums max(0, |h_{i+1}| - |h_i|) per step; for a single
    // operation sequence that is the positive part of its net stack delta.
    const int delta = stack_delta(ops);
    return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

std::string describe_ops(const LabelTable& labels, const std::vector<Op>& ops) {
    if (ops.empty()) return "-";
    std::string out;
    for (const auto& op : ops) {
        if (!out.empty()) out += " o ";
        switch (op.kind) {
            case Op::Kind::Push: out += "push(" + labels.display(op.label) + ")"; break;
            case Op::Kind::Swap: out += "swap(" + labels.display(op.label) + ")"; break;
            case Op::Kind::Pop: out += "pop"; break;
        }
    }
    return out;
}

namespace {
/// Tail inserts beyond this trigger a merge into the sorted body; keeps
/// lookups at one binary search plus a short linear scan, and bulk
/// construction at amortised O(n log n).
constexpr std::size_t k_tail_limit = 64;
} // namespace

const RoutingTable::Slot* RoutingTable::find_slot(std::uint64_t key) const {
    const auto it = std::lower_bound(
        _sorted.begin(), _sorted.end(), key,
        [](const Slot& slot, std::uint64_t k) { return slot.first < k; });
    if (it != _sorted.end() && it->first == key) return &*it;
    for (const auto& slot : _tail)
        if (slot.first == key) return &slot;
    return nullptr;
}

RoutingTable::Slot* RoutingTable::find_slot(std::uint64_t key) {
    return const_cast<Slot*>(std::as_const(*this).find_slot(key));
}

void RoutingTable::compact() {
    const auto key_less = [](const Slot& a, const Slot& b) { return a.first < b.first; };
    std::sort(_tail.begin(), _tail.end(), key_less);
    const auto offset = static_cast<std::ptrdiff_t>(_sorted.size());
    _sorted.insert(_sorted.end(), std::make_move_iterator(_tail.begin()),
                   std::make_move_iterator(_tail.end()));
    std::inplace_merge(_sorted.begin(), _sorted.begin() + offset, _sorted.end(), key_less);
    _tail.clear();
}

RoutingEntry& RoutingTable::own_entry(Slot& slot) {
    if (slot.second.use_count() > 1)
        slot.second = std::make_shared<RoutingEntry>(*slot.second); // copy-on-write
    return *slot.second;
}

void RoutingTable::add_rule(LinkId in_link, Label label, std::uint32_t priority,
                            LinkId out_link, std::vector<Op> ops) {
    if (priority == 0) throw model_error("rule priority must be >= 1");
    _stamp.bump();
    auto* slot = find_slot(key_of(in_link, label));
    if (slot == nullptr) {
        if (_tail.size() >= k_tail_limit) compact();
        slot = &_tail.emplace_back(key_of(in_link, label), std::make_shared<RoutingEntry>());
    }
    auto& entry_groups = own_entry(*slot);
    if (entry_groups.size() < priority) entry_groups.resize(priority);
    entry_groups[priority - 1].push_back({out_link, std::move(ops)});
}

bool RoutingTable::remove_entry(LinkId in_link, Label label) {
    const auto* slot = find_slot(key_of(in_link, label));
    if (slot == nullptr) return false;
    _stamp.bump();
    if (slot >= _tail.data() && slot < _tail.data() + _tail.size())
        _tail.erase(_tail.begin() + (slot - _tail.data()));
    else
        _sorted.erase(_sorted.begin() + (slot - _sorted.data()));
    return true;
}

std::size_t RoutingTable::remove_rule(LinkId in_link, Label label, LinkId out_link,
                                      const std::vector<Op>* ops) {
    auto* slot = find_slot(key_of(in_link, label));
    if (slot == nullptr) return 0;
    const auto matches = [&](const ForwardingRule& rule) {
        return rule.out_link == out_link && (ops == nullptr || rule.ops == *ops);
    };
    // Probe the shared entry first so a miss never clones it.
    std::size_t found = 0;
    for (const auto& group : *slot->second)
        found += static_cast<std::size_t>(std::count_if(group.begin(), group.end(), matches));
    if (found == 0) return 0;
    _stamp.bump();
    auto& entry_groups = own_entry(*slot);
    std::size_t removed = 0;
    bool any_left = false;
    for (auto& group : entry_groups) {
        std::erase_if(group, [&](const ForwardingRule& rule) {
            if (!matches(rule)) return false;
            ++removed;
            return true;
        });
        any_left = any_left || !group.empty();
    }
    if (removed > 0 && !any_left) remove_entry(in_link, label);
    return removed;
}

const RoutingEntry* RoutingTable::entry(LinkId in_link, Label label) const {
    const auto* slot = find_slot(key_of(in_link, label));
    return slot == nullptr ? nullptr : slot->second.get();
}

void RoutingTable::for_each(
    const std::function<void(LinkId, Label, const RoutingEntry&)>& fn) const {
    const auto visit = [&](const Slot& slot) {
        const auto in_link = static_cast<LinkId>(slot.first >> 32);
        const auto label = static_cast<Label>(slot.first & 0xFFFFFFFFu);
        fn(in_link, label, *slot.second);
    };
    if (_tail.empty()) { // the common case: key-ascending as stored
        for (const auto& slot : _sorted) visit(slot);
        return;
    }
    // Deterministic order with pending tail inserts: merge-iterate a sorted
    // view of the tail against the sorted body (keys are unique).
    std::vector<const Slot*> tail;
    tail.reserve(_tail.size());
    for (const auto& slot : _tail) tail.push_back(&slot);
    std::sort(tail.begin(), tail.end(),
              [](const Slot* a, const Slot* b) { return a->first < b->first; });
    auto sorted_it = _sorted.begin();
    for (const auto* slot : tail) {
        while (sorted_it != _sorted.end() && sorted_it->first < slot->first)
            visit(*sorted_it++);
        visit(*slot);
    }
    while (sorted_it != _sorted.end()) visit(*sorted_it++);
}

void RoutingTable::for_each_of(
    LinkId in_link, const std::function<void(Label, const RoutingEntry&)>& fn) const {
    const auto lo = key_of(in_link, 0);
    const auto hi = (static_cast<std::uint64_t>(in_link) + 1) << 32;
    const auto visit = [&](const Slot& slot) {
        fn(static_cast<Label>(slot.first & 0xFFFFFFFFu), *slot.second);
    };
    const auto key_less = [](const Slot& slot, std::uint64_t k) {
        return slot.first < k;
    };
    auto sorted_it = std::lower_bound(_sorted.begin(), _sorted.end(), lo, key_less);
    const auto sorted_end = std::lower_bound(sorted_it, _sorted.end(), hi, key_less);
    if (_tail.empty()) {
        for (; sorted_it != sorted_end; ++sorted_it) visit(*sorted_it);
        return;
    }
    // Same merged key order as for_each, restricted to this link's range.
    std::vector<const Slot*> tail;
    for (const auto& slot : _tail)
        if (slot.first >= lo && slot.first < hi) tail.push_back(&slot);
    std::sort(tail.begin(), tail.end(),
              [](const Slot* a, const Slot* b) { return a->first < b->first; });
    for (const auto* slot : tail) {
        while (sorted_it != sorted_end && sorted_it->first < slot->first)
            visit(*sorted_it++);
        visit(*slot);
    }
    while (sorted_it != sorted_end) visit(*sorted_it++);
}

std::size_t RoutingTable::rule_count() const {
    std::size_t count = 0;
    for (const auto* slots : {&_sorted, &_tail})
        for (const auto& [key, entry_groups] : *slots)
            for (const auto& group : *entry_groups) count += group.size();
    return count;
}

void RoutingTable::validate(const Topology& topology) const {
    const auto validate_slot = [&](const Slot& slot) {
        const auto& [key, entry_groups] = slot;
        const auto in_link = static_cast<LinkId>(key >> 32);
        if (in_link >= topology.link_count())
            throw model_error("routing entry references unknown link id " +
                              std::to_string(in_link));
        const auto at_router = topology.link(in_link).target;
        for (const auto& group : *entry_groups) {
            for (const auto& rule : group) {
                if (rule.out_link >= topology.link_count())
                    throw model_error("rule references unknown out-link id " +
                                      std::to_string(rule.out_link));
                if (topology.link(rule.out_link).source != at_router)
                    throw model_error(
                        "rule for link entering '" + topology.router_name(at_router) +
                        "' forwards via link " + topology.describe_link(rule.out_link) +
                        " which does not leave that router");
            }
        }
    };
    for (const auto* slots : {&_sorted, &_tail})
        for (const auto& slot : *slots) validate_slot(slot);
}

} // namespace aalwines
