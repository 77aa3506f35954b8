#pragma once
// Network topology: a directed multigraph of routers and links
// (paper, Definition 1), plus named interfaces and optional coordinates.
//
// Each physical connection between two router interfaces is modelled as two
// directed links (one per direction); failures are asymmetric, so the two
// directions fail independently.  Links carry an integer distance used by
// the `Distance` atomic quantity (e.g. latency in µs or metres).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/snapshot.hpp"
#include "util/errors.hpp"

namespace aalwines {

using RouterId = std::uint32_t;
using LinkId = std::uint32_t;
using InterfaceId = std::uint32_t;

inline constexpr std::uint32_t k_invalid_id = UINT32_MAX;

/// Geographic position (paper, Appendix A.2) used for visualisation and for
/// distance-based quantitative objectives.
struct Coordinate {
    double latitude = 0.0;
    double longitude = 0.0;
};

/// Great-circle distance between two coordinates, in metres.
[[nodiscard]] double haversine_meters(const Coordinate& a, const Coordinate& b);

struct Interface {
    RouterId router = k_invalid_id;
    std::string name;
};

struct Link {
    LinkId id = k_invalid_id;
    RouterId source = k_invalid_id;      ///< s(e)
    RouterId target = k_invalid_id;      ///< t(e)
    InterfaceId source_interface = k_invalid_id; ///< outgoing interface on s(e)
    InterfaceId target_interface = k_invalid_id; ///< incoming interface on t(e)
    std::uint64_t distance = 1;          ///< d(e) for the Distance quantity
};

class Topology {
public:
    /// Add a router; name must be unique.  Throws model_error on duplicates.
    RouterId add_router(std::string_view name);

    /// Add (or fetch) the interface `name` on `router`.
    InterfaceId add_interface(RouterId router, std::string_view name);

    /// Add one directed link.  Interfaces must belong to the given routers.
    LinkId add_link(RouterId source, InterfaceId source_interface,
                    RouterId target, InterfaceId target_interface,
                    std::uint64_t distance = 1);

    /// Add both directions of a physical connection; returns {a->b, b->a}.
    std::pair<LinkId, LinkId> add_duplex(RouterId a, std::string_view interface_on_a,
                                         RouterId b, std::string_view interface_on_b,
                                         std::uint64_t distance = 1);

    /// Administratively set one directed link up or down.  Down links are
    /// "failed for free": the verification layers treat them as permanently
    /// failed without charging the query's failure budget k, and no trace
    /// may start on or traverse them.  State is part of the topology value
    /// (copied with it), so what-if deltas flip it on a copy-on-write
    /// network snapshot without touching the shared base.
    void set_link_state(LinkId link, bool up);
    [[nodiscard]] bool link_up(LinkId link) const {
        return link >= _link_down.size() || !_link_down[link];
    }
    /// Number of links currently administratively down.
    [[nodiscard]] std::size_t down_link_count() const;

    void set_coordinate(RouterId router, Coordinate coordinate);
    [[nodiscard]] std::optional<Coordinate> coordinate(RouterId router) const;

    /// Recompute every link's distance from router coordinates (metres,
    /// rounded); links between routers without coordinates keep distance 1.
    void distances_from_coordinates();

    void set_distance(LinkId link, std::uint64_t distance);

    [[nodiscard]] std::optional<RouterId> find_router(std::string_view name) const;
    [[nodiscard]] std::optional<InterfaceId> find_interface(RouterId router,
                                                            std::string_view name) const;
    /// The directed link leaving `router` through interface `name`, if any.
    [[nodiscard]] std::optional<LinkId> out_link_through(RouterId router,
                                                         std::string_view name) const;
    /// The directed link entering `router` through interface `name`, if any.
    [[nodiscard]] std::optional<LinkId> in_link_through(RouterId router,
                                                        std::string_view name) const;

    [[nodiscard]] const std::string& router_name(RouterId router) const;
    [[nodiscard]] const Interface& interface(InterfaceId id) const;
    [[nodiscard]] const Link& link(LinkId id) const;

    [[nodiscard]] const std::vector<LinkId>& out_links(RouterId router) const;
    [[nodiscard]] const std::vector<LinkId>& in_links(RouterId router) const;

    /// All directed links from `source` to `target`.
    [[nodiscard]] std::vector<LinkId> links_between(RouterId source, RouterId target) const;

    [[nodiscard]] std::size_t router_count() const noexcept { return _router_names.size(); }
    [[nodiscard]] std::size_t link_count() const noexcept { return _links.size(); }
    [[nodiscard]] std::size_t interface_count() const noexcept { return _interfaces.size(); }
    [[nodiscard]] const std::vector<Link>& links() const noexcept { return _links; }

    /// Human-readable "Rsrc.if -> Rdst.if" form, for traces and diagnostics.
    [[nodiscard]] std::string describe_link(LinkId id) const;

    /// Content stamp: changes with every mutation (see ContentStamp).
    [[nodiscard]] std::uint64_t stamp() const noexcept { return _stamp.value(); }

private:
    std::vector<std::string> _router_names;
    std::unordered_map<std::string, RouterId> _router_ids;
    std::vector<std::optional<Coordinate>> _coordinates;

    std::vector<Interface> _interfaces;
    std::vector<std::unordered_map<std::string, InterfaceId>> _router_interfaces;

    std::vector<Link> _links;
    std::vector<std::vector<LinkId>> _out_links;
    std::vector<std::vector<LinkId>> _in_links;
    /// Sparse down-flags (empty = every link up); sized lazily on the first
    /// set_link_state so the common all-up topology stays allocation-free.
    std::vector<bool> _link_down;
    ContentStamp _stamp;
};

} // namespace aalwines
