#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "netlist/sim.hpp"
#include "route/steiner.hpp"
#include "util/strings.hpp"

#include "common.hpp"

namespace perfbench {

using namespace cals;

std::string check_equivalence(const BaseNetwork& net, const MappedNetlist& mapped,
                              std::uint64_t seed, std::uint32_t rounds) {
  std::vector<std::uint64_t> words(net.pis().size());
  for (std::uint32_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < words.size(); ++i)
      words[i] = mix_seed(seed, round * words.size() + i);
    if (simulate64(net, words) != mapped.simulate64(words))
      return strprintf("mapped netlist differs from its base network in pattern batch %u",
                       round);
  }
  return {};
}

std::string check_placement(const PlaceGraph& graph, const Floorplan& floorplan,
                            const Placement& placement) {
  constexpr double kEps = 1e-6;
  const double site = floorplan.site_width();
  const double row_height = floorplan.row_height();
  const Rect die = floorplan.die();
  // Per row: [first site, one past the last site) of each object.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> rows(floorplan.num_rows());
  for (std::uint32_t i = 0; i < graph.num_objects; ++i) {
    if (graph.fixed[i]) continue;
    const Point p = placement.pos[i];
    const double row_f = (p.y - die.lo.y) / row_height - 0.5;
    const double row_r = std::round(row_f);
    if (std::abs(row_f - row_r) > kEps || row_r < 0 || row_r >= floorplan.num_rows())
      return strprintf("object %u at y=%.6f is not on a row", i, p.y);
    const auto width_sites = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(graph.width[i] / site - 1e-9)));
    const double left_f = (p.x - die.lo.x) / site - 0.5 * static_cast<double>(width_sites);
    const double left_r = std::round(left_f);
    if (std::abs(left_f - left_r) > kEps)
      return strprintf("object %u at x=%.6f is not on a site", i, p.x);
    const auto left = static_cast<std::int64_t>(left_r);
    if (left < 0 || left + width_sites > static_cast<std::int64_t>(floorplan.sites_per_row()))
      return strprintf("object %u spans sites [%lld, %lld) outside the row", i,
                       static_cast<long long>(left),
                       static_cast<long long>(left + width_sites));
    rows[static_cast<std::size_t>(row_r)].push_back({left, left + width_sites});
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    auto& spans = rows[r];
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 1; k < spans.size(); ++k)
      if (spans[k].first < spans[k - 1].second)
        return strprintf("row %zu: objects overlap at site %lld", r,
                         static_cast<long long>(spans[k].first));
  }
  return {};
}

std::string check_routes(const PlaceGraph& graph, const Placement& placement,
                         const Floorplan& floorplan, const RGridOptions& rgrid,
                         const RouteResult& routed) {
  if (routed.nets.size() != graph.nets.size())
    return strprintf("%zu routed nets for %zu hypernets", routed.nets.size(),
                     graph.nets.size());
  const RoutingGrid grid(floorplan, rgrid);
  std::vector<GCell> pins;
  for (std::size_t n = 0; n < graph.nets.size(); ++n) {
    pins.clear();
    for (std::uint32_t p : graph.nets[n].pins) pins.push_back(grid.cell_at(placement.pos[p]));
    std::vector<Segment> segments;
    for (const Segment& seg : mst_segments(pins))
      if (!(seg.a == seg.b)) segments.push_back(seg);
    const RoutedNet& net = routed.nets[n];
    if (net.paths.size() != segments.size())
      return strprintf("net %zu: %zu routed paths for %zu segments", n, net.paths.size(),
                       segments.size());
    std::uint64_t length = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const std::vector<GCell>& path = net.paths[s];
      if (path.empty()) return strprintf("net %zu segment %zu: empty path", n, s);
      const bool forward = path.front() == segments[s].a && path.back() == segments[s].b;
      const bool backward = path.front() == segments[s].b && path.back() == segments[s].a;
      if (!forward && !backward)
        return strprintf("net %zu segment %zu: path does not join its pins", n, s);
      for (std::size_t k = 1; k < path.size(); ++k)
        if (std::abs(path[k].x - path[k - 1].x) + std::abs(path[k].y - path[k - 1].y) != 1)
          return strprintf("net %zu segment %zu: gcells %zu and %zu are not adjacent", n, s,
                           k - 1, k);
      length += path.size() - 1;
    }
    if (length != net.length)
      return strprintf("net %zu: routed length %llu, paths walk %llu", n,
                       static_cast<unsigned long long>(net.length),
                       static_cast<unsigned long long>(length));
  }
  return {};
}

std::string check_run(const std::string& name, const BaseNetwork& net,
                      const Floorplan& floorplan, const RGridOptions& rgrid,
                      const FlowRun& run, std::uint64_t seed) {
  std::string why = check_equivalence(net, run.map.netlist, seed, 4);
  if (why.empty()) why = check_placement(run.binding.graph, floorplan, run.placement);
  if (why.empty())
    why = check_routes(run.binding.graph, run.placement, floorplan, rgrid, run.route);
  return why.empty() ? why : name + ": " + why;
}

}  // namespace perfbench
