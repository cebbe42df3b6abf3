/// Proves the optimized router (dirty-set rip-up, A* maze with label-based
/// backtrack, pooled buffers — see DESIGN.md §7) is bit-identical to the
/// straightforward implementation it replaced. The reference below is that
/// implementation, kept verbatim: every-net every-iteration overflow scans,
/// walk-order path pricing (which the optimized pattern pass now shares),
/// plain priority_queue Dijkstra with from_-pointer backtrack.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "map/mapper.hpp"
#include "place/legalize.hpp"
#include "route/router.hpp"
#include "util/rng.hpp"
#include "workloads/presets.hpp"

namespace cals {
namespace {

// ---- reference implementation (the seed router, verbatim) -----------------

class EdgeCost {
 public:
  EdgeCost(const RoutingGrid& grid, double present_penalty)
      : grid_(grid), penalty_(present_penalty) {}

  double h_cost(std::int32_t x, std::int32_t y) const {
    const std::size_t e = grid_.h_edge(x, y);
    return cost(grid_.h_usage_raw()[e], grid_.h_capacity(), grid_.h_history()[e]);
  }
  double v_cost(std::int32_t x, std::int32_t y) const {
    const std::size_t e = grid_.v_edge(x, y);
    return cost(grid_.v_usage_raw()[e], grid_.v_capacity(), grid_.v_history()[e]);
  }

 private:
  double cost(double usage, double capacity, double history) const {
    double c = 1.0 + history;
    if (usage + 1.0 > capacity) c += penalty_ * (usage + 1.0 - capacity);
    return c;
  }

  const RoutingGrid& grid_;
  double penalty_;
};

void commit_path(RoutingGrid& grid, const std::vector<GCell>& path, double amount) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const GCell a = path[i];
    const GCell b = path[i + 1];
    if (a.y == b.y) {
      grid.add_h_usage(std::min(a.x, b.x), a.y, amount);
    } else {
      grid.add_v_usage(a.x, std::min(a.y, b.y), amount);
    }
  }
}

void walk(std::vector<GCell>& path, GCell from, GCell to) {
  const std::int32_t dx = (to.x > from.x) ? 1 : (to.x < from.x ? -1 : 0);
  const std::int32_t dy = (to.y > from.y) ? 1 : (to.y < from.y ? -1 : 0);
  GCell cur = from;
  while (!(cur == to)) {
    cur.x += dx;
    cur.y += dy;
    path.push_back(cur);
  }
}

double path_cost(const EdgeCost& cost, const std::vector<GCell>& path) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const GCell a = path[i];
    const GCell b = path[i + 1];
    total += (a.y == b.y) ? cost.h_cost(std::min(a.x, b.x), a.y)
                          : cost.v_cost(a.x, std::min(a.y, b.y));
  }
  return total;
}

std::vector<GCell> l_route(const EdgeCost& cost, GCell a, GCell b) {
  std::vector<GCell> p1{a};  // horizontal first
  walk(p1, a, {b.x, a.y});
  walk(p1, {b.x, a.y}, b);
  if (a.x == b.x || a.y == b.y) return p1;
  std::vector<GCell> p2{a};  // vertical first
  walk(p2, a, {a.x, b.y});
  walk(p2, {a.x, b.y}, b);
  return path_cost(cost, p1) <= path_cost(cost, p2) ? p1 : p2;
}

class MazeRouter {
 public:
  explicit MazeRouter(const RoutingGrid& grid) : grid_(grid) {
    const std::size_t n = static_cast<std::size_t>(grid.nx()) * grid.ny();
    dist_.assign(n, 0.0);
    stamp_.assign(n, 0);
    from_.assign(n, -1);
  }

  std::vector<GCell> route(const EdgeCost& cost, GCell src, GCell dst,
                           std::int32_t margin) {
    ++generation_;
    const std::int32_t x_lo = std::max(0, std::min(src.x, dst.x) - margin);
    const std::int32_t x_hi = std::min(grid_.nx() - 1, std::max(src.x, dst.x) + margin);
    const std::int32_t y_lo = std::max(0, std::min(src.y, dst.y) - margin);
    const std::int32_t y_hi = std::min(grid_.ny() - 1, std::max(src.y, dst.y) + margin);

    using Entry = std::pair<double, std::int32_t>;  // (dist, cell index)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    const std::int32_t start = index(src);
    dist_[start] = 0.0;
    stamp_[start] = generation_;
    from_[start] = -1;
    heap.push({0.0, start});

    const std::int32_t target = index(dst);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (stamp_[u] == generation_ && d > dist_[u]) continue;
      if (u == target) break;
      const std::int32_t ux = u % grid_.nx();
      const std::int32_t uy = u / grid_.nx();

      auto relax = [&](std::int32_t vx, std::int32_t vy, double w) {
        const std::int32_t v = vy * grid_.nx() + vx;
        const double nd = d + w;
        if (stamp_[v] != generation_ || nd < dist_[v]) {
          stamp_[v] = generation_;
          dist_[v] = nd;
          from_[v] = u;
          heap.push({nd, v});
        }
      };
      if (ux > x_lo) relax(ux - 1, uy, cost.h_cost(ux - 1, uy));
      if (ux < x_hi) relax(ux + 1, uy, cost.h_cost(ux, uy));
      if (uy > y_lo) relax(ux, uy - 1, cost.v_cost(ux, uy - 1));
      if (uy < y_hi) relax(ux, uy + 1, cost.v_cost(ux, uy));
    }

    std::vector<GCell> path;
    for (std::int32_t u = target; u != -1; u = from_[u])
      path.push_back({u % grid_.nx(), u / grid_.nx()});
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  std::int32_t index(GCell c) const { return c.y * grid_.nx() + c.x; }

  const RoutingGrid& grid_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> from_;
  std::uint32_t generation_ = 0;
};

bool path_overflows(const RoutingGrid& grid, const std::vector<GCell>& path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const GCell a = path[i];
    const GCell b = path[i + 1];
    if (a.y == b.y) {
      if (grid.h_usage(std::min(a.x, b.x), a.y) > grid.h_capacity()) return true;
    } else {
      if (grid.v_usage(a.x, std::min(a.y, b.y)) > grid.v_capacity()) return true;
    }
  }
  return false;
}

RouteResult reference_route(RoutingGrid& grid, const PlaceGraph& graph,
                            const Placement& placement, const RouteOptions& options = {}) {
  RouteResult result;
  result.nets.resize(graph.nets.size());
  grid.clear_usage();
  std::fill(grid.h_history().begin(), grid.h_history().end(), 0.0);
  std::fill(grid.v_history().begin(), grid.v_history().end(), 0.0);

  std::vector<std::vector<Segment>> topology(graph.nets.size());
  for (std::size_t n = 0; n < graph.nets.size(); ++n) {
    std::vector<GCell> pins;
    pins.reserve(graph.nets[n].pins.size());
    for (std::uint32_t p : graph.nets[n].pins) pins.push_back(grid.cell_at(placement.pos[p]));
    topology[n] = mst_segments(pins);
  }

  {
    EdgeCost cost(grid, options.present_penalty);
    for (std::size_t n = 0; n < graph.nets.size(); ++n) {
      RoutedNet& routed = result.nets[n];
      routed.paths.reserve(topology[n].size());
      for (const Segment& seg : topology[n]) {
        auto path = l_route(cost, seg.a, seg.b);
        commit_path(grid, path, 1.0);
        routed.length += path.size() - 1;
        routed.paths.push_back(std::move(path));
      }
    }
  }

  MazeRouter maze(grid);
  std::uint64_t best_overflow = UINT64_MAX;
  std::uint32_t stale_iters = 0;
  for (std::uint32_t iter = 0; iter < options.max_rrr_iterations; ++iter) {
    const std::uint64_t overflow = grid.total_overflow();
    if (overflow == 0) break;
    const bool hopeless = overflow > (grid.num_h_edges() + grid.num_v_edges()) / 2;
    if (overflow < best_overflow - best_overflow / 100) {
      best_overflow = overflow;
      stale_iters = 0;
    } else if (++stale_iters >= (hopeless ? 2u : 6u)) {
      break;
    }
    result.rrr_iterations = iter + 1;

    for (std::size_t e = 0; e < grid.num_h_edges(); ++e)
      if (grid.h_usage_raw()[e] > grid.h_capacity())
        grid.h_history()[e] += options.history_increment;
    for (std::size_t e = 0; e < grid.num_v_edges(); ++e)
      if (grid.v_usage_raw()[e] > grid.v_capacity())
        grid.v_history()[e] += options.history_increment;

    const EdgeCost cost(grid, options.present_penalty * (1.0 + iter));
    const std::int32_t margin = options.bbox_margin + static_cast<std::int32_t>(2 * iter);

    for (std::size_t n = 0; n < graph.nets.size(); ++n) {
      RoutedNet& routed = result.nets[n];
      for (std::size_t s = 0; s < routed.paths.size(); ++s) {
        if (!path_overflows(grid, routed.paths[s])) continue;
        commit_path(grid, routed.paths[s], -1.0);
        auto path = maze.route(cost, topology[n][s].a, topology[n][s].b, margin);
        commit_path(grid, path, 1.0);
        const auto delta = static_cast<std::int64_t>(path.size()) -
                           static_cast<std::int64_t>(routed.paths[s].size());
        routed.length =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(routed.length) + delta);
        routed.paths[s] = std::move(path);
      }
    }
  }

  result.total_overflow = grid.total_overflow();
  result.overflowed_edges = grid.overflowed_edges();
  for (const RoutedNet& routed : result.nets) result.wirelength_gcells += routed.length;
  result.gcell_um = grid.gcell_um();
  result.wirelength_um = static_cast<double>(result.wirelength_gcells) * grid.gcell_um();
  return result;
}

// ---- equivalence checks ---------------------------------------------------

struct Fixture {
  explicit Fixture(std::uint32_t rows) : fp(Floorplan::square_with_rows(rows, TechParams{})) {}

  Floorplan fp;  // rows x rows gcells, 6.4 um each
  PlaceGraph graph;
  Placement placement;

  std::uint32_t pin(double x, double y) {
    const std::uint32_t obj = graph.add_fixed({x, y});
    placement.pos.resize(graph.num_objects);
    placement.pos[obj] = {x, y};
    return obj;
  }
  void net(std::vector<std::uint32_t> pins) { graph.nets.push_back({std::move(pins)}); }
};

void expect_identical(const RouteResult& opt, const RouteResult& ref) {
  EXPECT_EQ(opt.total_overflow, ref.total_overflow);
  EXPECT_EQ(opt.overflowed_edges, ref.overflowed_edges);
  EXPECT_EQ(opt.wirelength_gcells, ref.wirelength_gcells);
  EXPECT_EQ(opt.rrr_iterations, ref.rrr_iterations);
  ASSERT_EQ(opt.nets.size(), ref.nets.size());
  std::size_t diff_nets = 0;
  for (std::size_t n = 0; n < opt.nets.size(); ++n) {
    EXPECT_EQ(opt.nets[n].length, ref.nets[n].length) << "net " << n;
    if (opt.nets[n].paths.size() != ref.nets[n].paths.size()) {
      ++diff_nets;
      continue;
    }
    bool same = true;
    for (std::size_t s = 0; s < opt.nets[n].paths.size(); ++s)
      same = same && opt.nets[n].paths[s] == ref.nets[n].paths[s];
    diff_nets += !same;
  }
  EXPECT_EQ(diff_nets, 0u) << "nets with differing per-segment paths";
}

/// Routes `nets` random 3-pin nets over a rows x rows-gcell die with both
/// routers, expects identical results and returns the optimized one.
RouteResult run_equivalence(std::uint64_t seed, double capacity_scale, std::uint32_t rows = 10,
                            int nets = 60, std::uint32_t max_rrr_iterations = 12) {
  Fixture f(rows);
  Rng rng(seed);
  const double span = 6.0 * rows;  // pins cover 15/16 of the die side
  const int num_objs = nets * 5 / 6;  // 50 pin objects for 60 nets
  std::vector<std::uint32_t> objs;
  for (int i = 0; i < num_objs; ++i)
    objs.push_back(f.pin(rng.uniform() * span, rng.uniform() * span));
  for (int n = 0; n < nets; ++n)
    f.net({objs[rng.below(num_objs)], objs[rng.below(num_objs)], objs[rng.below(num_objs)]});
  RGridOptions options;
  options.capacity_scale = capacity_scale;  // congested: heavy rip-up
  RouteOptions route_options;
  route_options.max_rrr_iterations = max_rrr_iterations;
  RoutingGrid g1(f.fp, options);
  RoutingGrid g2(f.fp, options);
  RouteResult opt = route(g1, f.graph, f.placement, route_options);
  const RouteResult ref = reference_route(g2, f.graph, f.placement, route_options);
  EXPECT_GT(ref.rrr_iterations, 0u);  // the interesting phase must be exercised
  expect_identical(opt, ref);
  return opt;
}

TEST(RouteEquivalence, CongestedRandomWorkload) { run_equivalence(11, 0.3); }

TEST(RouteEquivalence, OverflowedRandomWorkload) { run_equivalence(7, 0.15); }

// A 40x40-gcell die, congested for enough rounds that the maze box
// (margin 8 + 2 per round) spans the die: searches pop hundreds of cells,
// so the maze heap runs several levels deep with partial last levels.
TEST(RouteEquivalence, DeepHeapsOnLargeCongestedDie) {
  const RouteResult opt = run_equivalence(5, 0.3, 40, 200, 17);
  EXPECT_EQ(opt.rrr_iterations, 17u);  // round 16's margin of 40 covers the die
  std::uint64_t rerouted = 0;
  std::uint64_t maze_pops = 0;
  for (const RouteIterStats& it : opt.iter_stats) {
    rerouted += it.rerouted;
    maze_pops += it.maze_pops;
  }
  ASSERT_GT(rerouted, 0u);
  EXPECT_GT(maze_pops / rerouted, 300u);
}

// ---- golden regression on the spla-like preset ----------------------------

struct SplaRouteSetup {
  Floorplan fp;
  MappedPlaceBinding binding;
  Placement placement;

  explicit SplaRouteSetup(const BaseNetwork& net)
      : fp(Floorplan::for_cell_area(net.num_base_gates() * 5.3, 0.58, library().tech())) {
    const DesignContext context(net, &library(), fp);
    const MapResult mapped = map_network(net, library(), context.node_positions(), {});
    binding = mapped.netlist.lower(fp);
    placement = mapped.netlist.seed_placement(binding);
    legalize(binding.graph, fp, placement);
  }

  static const Library& library() {
    static const Library lib = lib::make_corelib();
    return lib;
  }
  static const SplaRouteSetup& get() {
    static const SplaRouteSetup setup = [] {
      BaseNetwork net = synthesize_base(workloads::spla_like(0.1));
      net.build_fanouts();
      return SplaRouteSetup(net);
    }();
    return setup;
  }
};

TEST(RouteGolden, SplaLikeUncongested) {
  const SplaRouteSetup& setup = SplaRouteSetup::get();
  RGridOptions options;
  options.capacity_scale = 3.5;
  RoutingGrid grid(setup.fp, options);
  const RouteResult result = route(grid, setup.binding.graph, setup.placement);
  EXPECT_EQ(result.total_overflow, 0u);
  EXPECT_EQ(result.overflowed_edges, 0u);
  EXPECT_EQ(result.wirelength_gcells, 17218u);
  EXPECT_EQ(result.rrr_iterations, 0u);
  EXPECT_NEAR(result.wirelength_um, 110195.2, 1e-6);
}

TEST(RouteGolden, SplaLikeCongested) {
  const SplaRouteSetup& setup = SplaRouteSetup::get();
  RGridOptions options;
  options.capacity_scale = 1.6;  // just under the routability cliff
  RoutingGrid grid(setup.fp, options);
  const RouteResult result = route(grid, setup.binding.graph, setup.placement);
  EXPECT_EQ(result.total_overflow, 2u);
  EXPECT_EQ(result.overflowed_edges, 2u);
  EXPECT_EQ(result.wirelength_gcells, 17908u);
  EXPECT_EQ(result.rrr_iterations, 12u);
  EXPECT_NEAR(result.wirelength_um, 114611.2, 1e-6);
  // The work the negotiation spent: candidates examined and A* pops.
  std::uint64_t candidates = 0;
  std::uint64_t maze_pops = 0;
  for (const RouteIterStats& it : result.iter_stats) {
    candidates += it.candidates;
    maze_pops += it.maze_pops;
  }
  EXPECT_EQ(candidates, 7374u);
  EXPECT_EQ(maze_pops, 329905u);
}

}  // namespace
}  // namespace cals
