#include "delta/delta.hpp"

#include <algorithm>

#include "util/errors.hpp"
#include "verify/translation.hpp"

namespace aalwines::delta {

namespace {

LabelType parse_label_type(const std::string& text) {
    if (text == "mpls") return LabelType::Mpls;
    if (text == "smpls") return LabelType::MplsBos;
    if (text == "ip") return LabelType::Ip;
    throw model_error("unknown label type '" + text + "' (expected mpls, smpls or ip)");
}

/// Read the (label, type) pair of `value`; `type` defaults to mpls, as in
/// the XML routing format.
DeltaOp::LabelRef parse_label_ref(const json::Value& value) {
    DeltaOp::LabelRef ref;
    ref.name = value.at("label").as_string();
    if (const auto* type = value.find("type")) ref.type = parse_label_type(type->as_string());
    return ref;
}

std::vector<DeltaOp::OpRef> parse_ops(const json::Value& value) {
    std::vector<DeltaOp::OpRef> ops;
    for (const auto& action : value.as_array()) {
        DeltaOp::OpRef op;
        const auto& kind = action.at("op").as_string();
        if (kind == "pop") {
            op.kind = Op::Kind::Pop;
        } else if (kind == "push" || kind == "swap") {
            op.kind = kind == "push" ? Op::Kind::Push : Op::Kind::Swap;
            op.label = parse_label_ref(action);
        } else {
            throw model_error("unknown action op '" + kind + "'");
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/// Resolution context: looks names up against the copied network, tracking
/// whether any label had to be minted.
struct Resolver {
    Network& network;
    bool label_added = false;

    RouterId router(const std::string& name) const {
        const auto id = network.topology.find_router(name);
        if (!id) throw model_error("delta references unknown router '" + name + "'");
        return *id;
    }
    LinkId in_link(const std::string& router_name, const std::string& interface) const {
        const auto link = network.topology.in_link_through(router(router_name), interface);
        if (!link)
            throw model_error("router '" + router_name +
                              "' has no incoming link through interface '" + interface + "'");
        return *link;
    }
    LinkId out_link(const std::string& router_name, const std::string& interface) const {
        const auto link = network.topology.out_link_through(router(router_name), interface);
        if (!link)
            throw model_error("router '" + router_name +
                              "' has no outgoing link through interface '" + interface + "'");
        return *link;
    }
    /// Intern, noting first sightings (a fresh label widens the alphabet).
    Label mint(const DeltaOp::LabelRef& ref) {
        if (!network.labels.find(ref.type, ref.name)) label_added = true;
        return network.labels.add(ref.type, ref.name);
    }
    /// Lookup-only: removal ops address existing labels; an unknown one can
    /// match nothing, which the caller reports as a failed removal.
    std::optional<Label> existing(const DeltaOp::LabelRef& ref) const {
        return network.labels.find(ref.type, ref.name);
    }
};

} // namespace

NetworkDelta NetworkDelta::from_json(const json::Value& value) {
    NetworkDelta delta;
    for (const auto& item : value.at("operations").as_array()) {
        DeltaOp op;
        const auto& kind = item.at("op").as_string();
        op.router = item.at("router").as_string();
        if (kind == "add-rule" || kind == "remove-rule" || kind == "remove-entry") {
            op.in_interface = item.at("from").as_string();
            op.label = parse_label_ref(item);
        }
        if (kind == "add-rule") {
            op.kind = DeltaOp::Kind::AddRule;
            op.out_interface = item.at("to").as_string();
            if (const auto* priority = item.find("priority")) {
                if (priority->as_int() < 1)
                    throw model_error("delta rule priority must be >= 1");
                op.priority = static_cast<std::uint32_t>(priority->as_int());
            }
            if (const auto* ops = item.find("ops")) op.ops = parse_ops(*ops);
        } else if (kind == "remove-rule") {
            op.kind = DeltaOp::Kind::RemoveRule;
            op.out_interface = item.at("to").as_string();
            if (const auto* ops = item.find("ops")) {
                op.ops = parse_ops(*ops);
                op.match_ops = true;
            }
        } else if (kind == "remove-entry") {
            op.kind = DeltaOp::Kind::RemoveEntry;
        } else if (kind == "link-state") {
            op.kind = DeltaOp::Kind::LinkState;
            op.out_interface = item.at("interface").as_string();
            op.up = item.at("up").as_bool();
        } else if (kind == "set-distance") {
            op.kind = DeltaOp::Kind::SetDistance;
            op.out_interface = item.at("interface").as_string();
            if (item.at("distance").as_int() < 0)
                throw model_error("delta link distance must be >= 0");
            op.distance = static_cast<std::uint64_t>(item.at("distance").as_int());
        } else {
            throw model_error("unknown delta op '" + kind +
                              "' (expected add-rule, remove-rule, remove-entry, "
                              "link-state or set-distance)");
        }
        delta.ops.push_back(std::move(op));
    }
    return delta;
}

void DeltaEffects::merge(const DeltaEffects& other) {
    const auto unite = [](std::vector<LinkId>& into, const std::vector<LinkId>& from) {
        into.insert(into.end(), from.begin(), from.end());
        std::sort(into.begin(), into.end());
        into.erase(std::unique(into.begin(), into.end()), into.end());
    };
    unite(entry_links, other.entry_links);
    unite(state_links, other.state_links);
    unite(distance_links, other.distance_links);
    label_added = label_added || other.label_added;
}

AppliedDelta apply_delta(const Network& base, const NetworkDelta& delta) {
    // Deep copy (value semantics throughout the model layer): the base stays
    // untouched for in-flight queries on the old generation.
    auto copy = std::make_shared<Network>(base);
    Resolver resolve{*copy};
    DeltaEffects effects;

    for (const auto& op : delta.ops) {
        switch (op.kind) {
            case DeltaOp::Kind::AddRule: {
                const auto in = resolve.in_link(op.router, op.in_interface);
                const auto out = resolve.out_link(op.router, op.out_interface);
                std::vector<Op> ops;
                ops.reserve(op.ops.size());
                for (const auto& action : op.ops)
                    ops.push_back(action.kind == Op::Kind::Pop
                                      ? Op::pop()
                                      : Op{action.kind, resolve.mint(action.label)});
                copy->routing.add_rule(in, resolve.mint(op.label), op.priority, out,
                                       std::move(ops));
                effects.entry_links.push_back(in);
                break;
            }
            case DeltaOp::Kind::RemoveRule: {
                const auto in = resolve.in_link(op.router, op.in_interface);
                const auto out = resolve.out_link(op.router, op.out_interface);
                const auto label = resolve.existing(op.label);
                std::size_t removed = 0;
                std::vector<Op> ops;
                bool resolvable = label.has_value();
                if (resolvable && op.match_ops) {
                    ops.reserve(op.ops.size());
                    for (const auto& action : op.ops) {
                        if (action.kind == Op::Kind::Pop) {
                            ops.push_back(Op::pop());
                            continue;
                        }
                        const auto operand = resolve.existing(action.label);
                        if (!operand) {
                            resolvable = false; // unknown operand: matches nothing
                            break;
                        }
                        ops.push_back(Op{action.kind, *operand});
                    }
                }
                if (resolvable)
                    removed = copy->routing.remove_rule(in, *label, out,
                                                        op.match_ops ? &ops : nullptr);
                if (removed == 0)
                    throw model_error("delta remove-rule matched no rule on router '" +
                                      op.router + "' (" + op.in_interface + ", " +
                                      op.label.name + ") -> " + op.out_interface);
                effects.entry_links.push_back(in);
                break;
            }
            case DeltaOp::Kind::RemoveEntry: {
                const auto in = resolve.in_link(op.router, op.in_interface);
                const auto label = resolve.existing(op.label);
                if (!label || !copy->routing.remove_entry(in, *label))
                    throw model_error("delta remove-entry matched no entry on router '" +
                                      op.router + "' (" + op.in_interface + ", " +
                                      op.label.name + ")");
                effects.entry_links.push_back(in);
                break;
            }
            case DeltaOp::Kind::LinkState: {
                const auto link = resolve.out_link(op.router, op.out_interface);
                if (copy->topology.link_up(link) != op.up) {
                    copy->topology.set_link_state(link, op.up);
                    effects.state_links.push_back(link);
                }
                break;
            }
            case DeltaOp::Kind::SetDistance: {
                const auto link = resolve.out_link(op.router, op.out_interface);
                if (copy->topology.link(link).distance != op.distance) {
                    copy->topology.set_distance(link, op.distance);
                    effects.distance_links.push_back(link);
                }
                break;
            }
        }
    }

    // A batch can touch the same link repeatedly; report each link once.
    const auto dedup = [](std::vector<LinkId>& links) {
        std::sort(links.begin(), links.end());
        links.erase(std::unique(links.begin(), links.end()), links.end());
    };
    dedup(effects.entry_links);
    dedup(effects.state_links);
    dedup(effects.distance_links);
    effects.label_added = resolve.label_added;
    // The copy inherits the base's translation index with only the rows
    // this delta reaches recomputed, so no generation rebuilds it whole.
    verify::TranslationIndex::carry_over(base, *copy, effects.entry_links,
                                         effects.state_links);
    return {std::move(copy), std::move(effects)};
}

} // namespace aalwines::delta
