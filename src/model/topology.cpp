#include "model/topology.hpp"

#include "util/check.hpp"
#include <cmath>
#include <numbers>

namespace aalwines {

double haversine_meters(const Coordinate& a, const Coordinate& b) {
    constexpr double earth_radius_m = 6371008.8;
    const double to_rad = std::numbers::pi / 180.0;
    const double lat1 = a.latitude * to_rad;
    const double lat2 = b.latitude * to_rad;
    const double dlat = (b.latitude - a.latitude) * to_rad;
    const double dlng = (b.longitude - a.longitude) * to_rad;
    const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                     std::cos(lat1) * std::cos(lat2) * std::sin(dlng / 2) * std::sin(dlng / 2);
    return 2.0 * earth_radius_m * std::asin(std::min(1.0, std::sqrt(h)));
}

RouterId Topology::add_router(std::string_view name) {
    std::string key(name);
    if (_router_ids.contains(key))
        throw model_error("duplicate router name '" + key + "'");
    _stamp.bump();
    const RouterId id = static_cast<RouterId>(_router_names.size());
    _router_ids.emplace(key, id);
    _router_names.push_back(std::move(key));
    _coordinates.emplace_back();
    _router_interfaces.emplace_back();
    _out_links.emplace_back();
    _in_links.emplace_back();
    return id;
}

InterfaceId Topology::add_interface(RouterId router, std::string_view name) {
    AALWINES_CHECK(router < _router_names.size(),
                   "unknown router id " + std::to_string(router));
    auto& table = _router_interfaces[router];
    std::string key(name);
    if (auto it = table.find(key); it != table.end()) return it->second;
    _stamp.bump();
    const InterfaceId id = static_cast<InterfaceId>(_interfaces.size());
    _interfaces.push_back({router, key});
    table.emplace(std::move(key), id);
    return id;
}

LinkId Topology::add_link(RouterId source, InterfaceId source_interface,
                          RouterId target, InterfaceId target_interface,
                          std::uint64_t distance) {
    if (_interfaces.at(source_interface).router != source)
        throw model_error("interface does not belong to source router '" +
                          router_name(source) + "'");
    if (_interfaces.at(target_interface).router != target)
        throw model_error("interface does not belong to target router '" +
                          router_name(target) + "'");
    _stamp.bump();
    const LinkId id = static_cast<LinkId>(_links.size());
    _links.push_back({id, source, target, source_interface, target_interface, distance});
    _out_links[source].push_back(id);
    _in_links[target].push_back(id);
    return id;
}

std::pair<LinkId, LinkId> Topology::add_duplex(RouterId a, std::string_view interface_on_a,
                                               RouterId b, std::string_view interface_on_b,
                                               std::uint64_t distance) {
    const auto ia = add_interface(a, interface_on_a);
    const auto ib = add_interface(b, interface_on_b);
    const auto forward = add_link(a, ia, b, ib, distance);
    const auto backward = add_link(b, ib, a, ia, distance);
    return {forward, backward};
}

void Topology::set_coordinate(RouterId router, Coordinate coordinate) {
    AALWINES_CHECK(router < _coordinates.size(),
                   "unknown router id " + std::to_string(router));
    _stamp.bump();
    _coordinates[router] = coordinate;
}

std::optional<Coordinate> Topology::coordinate(RouterId router) const {
    AALWINES_CHECK(router < _coordinates.size(),
                   "unknown router id " + std::to_string(router));
    return _coordinates[router];
}

void Topology::distances_from_coordinates() {
    _stamp.bump();
    for (auto& link : _links) {
        const auto a = _coordinates[link.source];
        const auto b = _coordinates[link.target];
        if (a && b)
            link.distance = static_cast<std::uint64_t>(std::llround(haversine_meters(*a, *b)));
    }
}

void Topology::set_distance(LinkId link, std::uint64_t distance) {
    _links.at(link).distance = distance;
    _stamp.bump();
}

void Topology::set_link_state(LinkId link, bool up) {
    if (link >= _links.size()) throw model_error("set_link_state: unknown link");
    _stamp.bump();
    if (up && link >= _link_down.size()) return; // already up, keep sparse
    if (_link_down.size() < _links.size()) _link_down.resize(_links.size(), false);
    _link_down[link] = !up;
}

std::size_t Topology::down_link_count() const {
    std::size_t down = 0;
    for (const auto flag : _link_down) down += flag ? 1 : 0;
    return down;
}

std::optional<RouterId> Topology::find_router(std::string_view name) const {
    if (auto it = _router_ids.find(std::string(name)); it != _router_ids.end())
        return it->second;
    return std::nullopt;
}

std::optional<InterfaceId> Topology::find_interface(RouterId router,
                                                    std::string_view name) const {
    AALWINES_CHECK(router < _router_interfaces.size(),
                   "unknown router id " + std::to_string(router));
    const auto& table = _router_interfaces[router];
    if (auto it = table.find(std::string(name)); it != table.end()) return it->second;
    return std::nullopt;
}

std::optional<LinkId> Topology::out_link_through(RouterId router,
                                                 std::string_view name) const {
    const auto iface = find_interface(router, name);
    if (!iface) return std::nullopt;
    for (const auto link_id : _out_links[router])
        if (_links[link_id].source_interface == *iface) return link_id;
    return std::nullopt;
}

std::optional<LinkId> Topology::in_link_through(RouterId router,
                                                std::string_view name) const {
    const auto iface = find_interface(router, name);
    if (!iface) return std::nullopt;
    for (const auto link_id : _in_links[router])
        if (_links[link_id].target_interface == *iface) return link_id;
    return std::nullopt;
}

const std::string& Topology::router_name(RouterId router) const {
    AALWINES_CHECK(router < _router_names.size(),
                   "unknown router id " + std::to_string(router));
    return _router_names[router];
}

const Interface& Topology::interface(InterfaceId id) const {
    AALWINES_CHECK(id < _interfaces.size(), "unknown interface id " + std::to_string(id));
    return _interfaces[id];
}

const Link& Topology::link(LinkId id) const {
    AALWINES_CHECK(id < _links.size(), "unknown link id " + std::to_string(id));
    return _links[id];
}

const std::vector<LinkId>& Topology::out_links(RouterId router) const {
    AALWINES_CHECK(router < _out_links.size(),
                   "unknown router id " + std::to_string(router));
    return _out_links[router];
}

const std::vector<LinkId>& Topology::in_links(RouterId router) const {
    AALWINES_CHECK(router < _in_links.size(),
                   "unknown router id " + std::to_string(router));
    return _in_links[router];
}

std::vector<LinkId> Topology::links_between(RouterId source, RouterId target) const {
    std::vector<LinkId> out;
    for (const auto link_id : _out_links[source])
        if (_links[link_id].target == target) out.push_back(link_id);
    return out;
}

std::string Topology::describe_link(LinkId id) const {
    const auto& l = link(id);
    return router_name(l.source) + "." + _interfaces[l.source_interface].name + " -> " +
           router_name(l.target) + "." + _interfaces[l.target_interface].name;
}

} // namespace aalwines
