/// cals::rcm congestion repair: overflow strictly improves on a congested
/// workload, the repaired placement stays legal, repair-off is bit-identical
/// to the plain router, repair-on is bit-identical at any thread count, and
/// a failed or skipped repair ships the repair-off run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "map/mapper.hpp"
#include "place/legalize.hpp"
#include "rcm/rcm.hpp"
#include "route/router.hpp"
#include "util/faults.hpp"
#include "util/fnv.hpp"
#include "workloads/presets.hpp"

namespace cals {
namespace {

/// The congested spla-like fixture (same construction as the route goldens):
/// a real mapped + legalized design whose cells are movable, routed on a
/// grid scaled just past the routability cliff.
struct RepairSetup {
  Floorplan fp;
  MappedPlaceBinding binding;
  Placement placement;

  explicit RepairSetup(const BaseNetwork& net)
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
  static const RepairSetup& get() {
    static const RepairSetup setup = [] {
      BaseNetwork net = synthesize_base(workloads::spla_like(0.1));
      net.build_fanouts();
      return RepairSetup(net);
    }();
    return setup;
  }
  static RGridOptions congested_grid() {
    RGridOptions options;
    options.capacity_scale = 1.5;  // past the cliff: sustained overflow
    return options;
  }
};

struct RepairOutcome {
  rcm::RepairStats stats;
  RouteResult route;
  Placement placement;
};

RepairOutcome run_repair(const rcm::RepairOptions& options) {
  const RepairSetup& setup = RepairSetup::get();
  RepairOutcome out;
  out.placement = setup.placement;
  RoutingGrid grid(setup.fp, RepairSetup::congested_grid());
  Router router(grid, setup.binding.graph, out.placement);
  router.run();
  out.stats = rcm::repair(router, grid, setup.binding.graph, setup.fp, out.placement,
                          options);
  out.route = router.take();
  return out;
}

void expect_identical_routes(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.overflowed_edges, b.overflowed_edges);
  EXPECT_EQ(a.wirelength_gcells, b.wirelength_gcells);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  std::size_t diff = 0;
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    EXPECT_EQ(a.nets[n].length, b.nets[n].length) << "net " << n;
    if (a.nets[n].paths != b.nets[n].paths) ++diff;
  }
  EXPECT_EQ(diff, 0u) << "nets with differing paths";
}

TEST(Rcm, ZeroPassesIsNoop) {
  // repair() with passes=0 must leave the session untouched: the routed
  // result equals the plain one-shot route() bit for bit.
  const RepairSetup& setup = RepairSetup::get();
  RoutingGrid reference_grid(setup.fp, RepairSetup::congested_grid());
  const RouteResult reference =
      route(reference_grid, setup.binding.graph, setup.placement);

  rcm::RepairOptions options;
  options.passes = 0;
  const RepairOutcome repaired = run_repair(options);
  EXPECT_EQ(repaired.stats.passes_run, 0u);
  EXPECT_EQ(repaired.stats.cells_moved, 0u);
  expect_identical_routes(repaired.route, reference);
  EXPECT_EQ(repaired.placement.pos, setup.placement.pos);
}

TEST(Rcm, RemovesOverflowOnCongestedPreset) {
  rcm::RepairOptions options;
  options.passes = 3;
  const RepairOutcome repaired = run_repair(options);
  ASSERT_GT(repaired.stats.overflow_before, 0u) << "fixture must start overflowed";
  EXPECT_GT(repaired.stats.passes_run, 0u);
  EXPECT_GT(repaired.stats.cells_moved, 0u);
  // The acceptance bar: at least 30% of the routed overflow removed.
  EXPECT_LE(repaired.stats.overflow_after * 10,
            repaired.stats.overflow_before * 7)
      << "overflow " << repaired.stats.overflow_before << " -> "
      << repaired.stats.overflow_after;
  EXPECT_EQ(repaired.route.total_overflow, repaired.stats.overflow_after);
  // Per-pass telemetry is consistent: passes chain and never regress (a
  // regressing pass would have been reverted and ended the loop).
  ASSERT_EQ(repaired.stats.passes.size(), repaired.stats.passes_run);
  EXPECT_EQ(repaired.stats.passes.front().overflow_before,
            repaired.stats.overflow_before);
  EXPECT_EQ(repaired.stats.passes.back().overflow_after,
            repaired.stats.overflow_after);
}

// ---- golden repair session ---------------------------------------------------
// Pins one whole incremental session (run(), then invalidate_nets +
// reroute_dirty per repair pass): the routed paths by digest, the totals,
// every rip-up round's counters and every pass's telemetry. The one-shot
// equivalence tests never reach invalidate_nets/reroute_dirty, so any change
// to the session's candidate order, its reroutes or its counters shows here.

std::uint64_t path_digest(const RouteResult& route) {
  Fnv64 h;
  for (const RoutedNet& net : route.nets) {
    const std::uint64_t paths = net.paths.size();
    h.update(&paths, sizeof(paths));
    for (const std::vector<GCell>& path : net.paths) {
      const std::uint64_t cells = path.size();
      h.update(&cells, sizeof(cells));
      h.update(path.data(), path.size() * sizeof(GCell));
    }
  }
  return h.digest();
}

TEST(Rcm, RepairSessionGolden) {
  rcm::RepairOptions options;
  options.passes = 3;
  const RepairOutcome repaired = run_repair(options);
  const RouteResult& route = repaired.route;

  EXPECT_EQ(path_digest(route), 0x958b2059d1169d85ull);
  EXPECT_EQ(route.total_overflow, 0u);
  EXPECT_EQ(route.wirelength_gcells, 19361u);
  EXPECT_EQ(route.rrr_iterations, 24u);

  struct Iter {
    std::uint64_t overflow;
    std::uint32_t dirty_edges, candidates, rerouted;
    std::uint64_t maze_pops;
  };
  // run()'s 12 rounds, then each repair pass's reroute_dirty rounds.
  const std::vector<Iter> iters = {
      {922, 255, 1772, 1361, 88653}, {213, 171, 1415, 1042, 81858},
      {134, 123, 1173, 853, 78991},  {98, 90, 1072, 730, 74995},
      {78, 75, 962, 659, 79766},     {73, 70, 920, 651, 88588},
      {70, 69, 887, 636, 94796},     {56, 55, 810, 605, 93752},
      {54, 53, 766, 592, 98761},     {53, 52, 765, 593, 98510},
      {53, 52, 797, 584, 105459},    {53, 52, 794, 595, 110842},
      {313, 229, 2676, 941, 196504}, {72, 71, 1802, 539, 98573},
      {25, 25, 936, 272, 49676},     {15, 15, 752, 212, 41153},
      {11, 11, 648, 144, 28822},     {6, 6, 422, 103, 24720},
      {5, 5, 316, 104, 21511},       {5, 5, 356, 88, 17540},
      {94, 85, 2593, 434, 85987},    {14, 14, 959, 92, 19878},
      {3, 3, 257, 53, 11916},        {3, 3, 253, 32, 7591},
  };
  ASSERT_EQ(route.iter_stats.size(), iters.size());
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const RouteIterStats& got = route.iter_stats[i];
    EXPECT_EQ(got.overflow, iters[i].overflow) << "round " << i;
    EXPECT_EQ(got.dirty_edges, iters[i].dirty_edges) << "round " << i;
    EXPECT_EQ(got.candidates, iters[i].candidates) << "round " << i;
    EXPECT_EQ(got.rerouted, iters[i].rerouted) << "round " << i;
    EXPECT_EQ(got.maze_pops, iters[i].maze_pops) << "round " << i;
  }

  const std::vector<rcm::RepairPassStats> passes = {
      {51, 5, 58, 672, false},
      {5, 0, 19, 386, false},
  };
  ASSERT_EQ(repaired.stats.passes.size(), passes.size());
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const rcm::RepairPassStats& got = repaired.stats.passes[p];
    EXPECT_EQ(got.overflow_before, passes[p].overflow_before) << "pass " << p;
    EXPECT_EQ(got.overflow_after, passes[p].overflow_after) << "pass " << p;
    EXPECT_EQ(got.cells_moved, passes[p].cells_moved) << "pass " << p;
    EXPECT_EQ(got.nets_rerouted, passes[p].nets_rerouted) << "pass " << p;
    EXPECT_EQ(got.reverted, passes[p].reverted) << "pass " << p;
  }
}

TEST(Rcm, RepairedPlacementStaysLegal) {
  rcm::RepairOptions options;
  options.passes = 3;
  const RepairOutcome repaired = run_repair(options);
  ASSERT_GT(repaired.stats.cells_moved, 0u);

  const RepairSetup& setup = RepairSetup::get();
  const PlaceGraph& graph = setup.binding.graph;
  const double site = setup.fp.site_width();
  const Rect& die = setup.fp.die();
  // Every movable cell sits on a row centerline with its footprint on the
  // site grid, inside the die, and footprints are disjoint within each row.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> spans(
      setup.fp.num_rows());
  for (std::uint32_t obj = 0; obj < graph.num_objects; ++obj) {
    if (graph.fixed[obj] || graph.width[obj] <= 0.0) continue;
    const Point p = repaired.placement.pos[obj];
    const std::uint32_t row = setup.fp.nearest_row(p.y);
    EXPECT_NEAR(p.y, setup.fp.row_y(row), 1e-9) << "cell " << obj;
    const auto w = static_cast<std::int64_t>(
        std::ceil(graph.width[obj] / site - 1e-9));
    const double left = (p.x - die.lo.x) / site - static_cast<double>(w) * 0.5;
    const auto left_site = static_cast<std::int64_t>(std::llround(left));
    EXPECT_NEAR(left, static_cast<double>(left_site), 1e-6) << "cell " << obj;
    EXPECT_GE(left_site, 0) << "cell " << obj;
    EXPECT_LE(left_site + std::max<std::int64_t>(1, w),
              static_cast<std::int64_t>(setup.fp.sites_per_row()))
        << "cell " << obj;
    spans[row].push_back({left_site, left_site + std::max<std::int64_t>(1, w)});
  }
  for (auto& row : spans) {
    std::sort(row.begin(), row.end());
    for (std::size_t i = 1; i < row.size(); ++i)
      EXPECT_LE(row[i - 1].second, row[i].first) << "overlap in a row";
  }
}

TEST(Rcm, FlowRepairKnobReducesViolationsWithValidSta) {
  // End to end through the flow: the repair-off run at a congested grid is
  // the baseline; repair_passes >= 1 must strictly reduce violations (by the
  // 30% acceptance bar) and still produce a valid STA.
  BaseNetwork net = synthesize_base(workloads::spla_like(0.1));
  net.build_fanouts();
  static const Library lib = lib::make_corelib();
  const Floorplan fp =
      Floorplan::for_cell_area(net.num_base_gates() * 5.3, 0.58, lib.tech());
  const DesignContext context(net, &lib, fp);

  FlowOptions options;
  options.replace_mapped = false;
  options.num_threads = 1;
  options.rgrid.capacity_scale = 1.5;

  const FlowRun baseline = context.run(options);
  ASSERT_GT(baseline.metrics.routing_violations, 0u);
  EXPECT_EQ(baseline.metrics.rcm_passes, 0u);
  EXPECT_TRUE(baseline.congestion_pre.to_csv().empty());

  options.repair_passes = 3;
  const FlowRun repaired = context.run(options);
  EXPECT_GT(repaired.metrics.rcm_cells_moved, 0u);
  EXPECT_LE(repaired.metrics.routing_violations * 10,
            baseline.metrics.routing_violations * 7)
      << "violations " << baseline.metrics.routing_violations << " -> "
      << repaired.metrics.routing_violations;
  EXPECT_EQ(repaired.metrics.rcm_overflow_removed,
            baseline.metrics.routing_violations - repaired.metrics.routing_violations);
  // Repair happened between routing and STA: timing is computed on the
  // repaired routes and must be a valid non-trivial critical path.
  EXPECT_GT(repaired.metrics.critical_path_ns, 0.0);
  EXPECT_FALSE(repaired.sta.critical.start.empty());
  EXPECT_FALSE(repaired.sta.critical.end.empty());
  // The pre/post heatmaps were captured and differ (repair moved demand).
  EXPECT_FALSE(repaired.congestion_pre.to_csv().empty());
  EXPECT_FALSE(repaired.congestion.to_csv().empty());
  EXPECT_NE(repaired.congestion_pre.to_csv(), repaired.congestion.to_csv());
  EXPECT_EQ(repaired.congestion_pre.stats().total_overflow,
            baseline.metrics.routing_violations);
  // The map before repair is the one the repair-off run ships.
  EXPECT_EQ(repaired.congestion_pre.to_csv(), baseline.congestion.to_csv());
}

TEST(Rcm, FlowRepairOffBitIdenticalToSeedFlow) {
  // repair_passes = 0 must keep the flow bit-identical to a default-options
  // run, whatever the other repair knobs say (they are inert when off).
  BaseNetwork net = synthesize_base(workloads::spla_like(0.08));
  net.build_fanouts();
  static const Library lib = lib::make_corelib();
  const Floorplan fp =
      Floorplan::for_cell_area(net.num_base_gates() * 5.3, 0.58, lib.tech());
  const DesignContext context(net, &lib, fp);

  FlowOptions defaults;
  defaults.replace_mapped = false;
  defaults.num_threads = 1;
  const FlowRun seed = context.run(defaults);

  FlowOptions knobs = defaults;
  knobs.repair_passes = 0;
  knobs.repair_window = 31;
  knobs.repair_max_cells = 999;
  const FlowRun off = context.run(knobs);

  EXPECT_EQ(off.placement.pos, seed.placement.pos);
  EXPECT_EQ(off.route.total_overflow, seed.route.total_overflow);
  EXPECT_EQ(off.route.wirelength_gcells, seed.route.wirelength_gcells);
  EXPECT_EQ(off.metrics.hpwl_um, seed.metrics.hpwl_um);
  EXPECT_EQ(off.metrics.critical_path_ns, seed.metrics.critical_path_ns);
  EXPECT_EQ(off.metrics.rcm_passes, 0u);
  EXPECT_EQ(off.metrics.rcm_cells_moved, 0u);
  EXPECT_EQ(off.metrics.rcm_overflow_removed, 0u);
}

TEST(Rcm, FailedRepairShipsTheRepairOffRun) {
  // A repair that throws is discarded for a fresh route of the restored
  // placement; one skipped by a kFail fault ships the session as run() left
  // it. Either way the evaluation ships exactly the repair-off run.
  BaseNetwork net = synthesize_base(workloads::spla_like(0.1));
  net.build_fanouts();
  static const Library lib = lib::make_corelib();
  const Floorplan fp =
      Floorplan::for_cell_area(net.num_base_gates() * 5.3, 0.58, lib.tech());
  const DesignContext context(net, &lib, fp);

  FlowOptions options;
  options.replace_mapped = false;
  options.num_threads = 1;
  options.rgrid.capacity_scale = 1.5;
  const FlowRun off = context.run(options);
  ASSERT_GT(off.metrics.routing_violations, 0u);

  options.repair_passes = 2;
  for (const faults::Action action : {faults::Action::kThrow, faults::Action::kFail}) {
    faults::arm("flow.repair", {.action = action});
    const FlowRun failed = context.run(options);
    EXPECT_EQ(faults::fired("flow.repair"), 1u);
    faults::reset();
    EXPECT_EQ(failed.placement.pos, off.placement.pos);
    expect_identical_routes(failed.route, off.route);
    EXPECT_EQ(failed.metrics.routing_violations, off.metrics.routing_violations);
    EXPECT_EQ(failed.metrics.wirelength_um, off.metrics.wirelength_um);
    EXPECT_EQ(failed.metrics.critical_path_ns, off.metrics.critical_path_ns);
    EXPECT_EQ(failed.metrics.rcm_passes, 0u);
  }
}

}  // namespace
}  // namespace cals
