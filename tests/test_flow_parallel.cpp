/// Determinism contract of the reuse-and-parallelism layer (DESIGN.md §6):
/// any FlowOptions::num_threads value must produce results bit-identical to
/// the serial path (num_threads = 1) — same covers, cell areas, wirelengths
/// and critical paths.

#include <gtest/gtest.h>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "util/log.hpp"
#include "workloads/presets.hpp"

namespace cals {
namespace {

constexpr double kScale = 0.1;  // ~2.3k base gates

const Library& test_library() {
  static const Library lib = lib::make_corelib();
  return lib;
}

const BaseNetwork& test_network() {
  static const BaseNetwork net = [] {
    BaseNetwork n = synthesize_base(workloads::spla_like(kScale));
    n.build_fanouts();
    return n;
  }();
  return net;
}

Floorplan test_floorplan() {
  return Floorplan::for_cell_area(test_network().num_base_gates() * 5.3, 0.58,
                                  test_library().tech());
}

FlowOptions serial_options() {
  FlowOptions options;
  options.num_threads = 1;
  options.replace_mapped = false;
  options.rgrid.capacity_scale = 3.5;
  return options;
}

FlowOptions parallel_options() {
  FlowOptions options = serial_options();
  options.num_threads = 4;
  return options;
}

void expect_identical_run(const FlowRun& a, const FlowRun& b) {
  // The realized cover, instance by instance.
  ASSERT_EQ(a.map.netlist.num_instances(), b.map.netlist.num_instances());
  for (std::uint32_t i = 0; i < a.map.netlist.num_instances(); ++i) {
    EXPECT_EQ(a.map.netlist.instance(i).cell, b.map.netlist.instance(i).cell);
    EXPECT_EQ(a.map.netlist.instance(i).fanins, b.map.netlist.instance(i).fanins);
  }
  EXPECT_EQ(a.map.stats.num_trees, b.map.stats.num_trees);
  EXPECT_EQ(a.map.stats.duplicated_signals, b.map.stats.duplicated_signals);
  EXPECT_DOUBLE_EQ(a.map.stats.dp_wire_cost, b.map.stats.dp_wire_cost);
  // Downstream physical design metrics.
  EXPECT_EQ(a.metrics.num_cells, b.metrics.num_cells);
  EXPECT_DOUBLE_EQ(a.metrics.cell_area_um2, b.metrics.cell_area_um2);
  EXPECT_DOUBLE_EQ(a.metrics.hpwl_um, b.metrics.hpwl_um);
  EXPECT_DOUBLE_EQ(a.metrics.wirelength_um, b.metrics.wirelength_um);
  EXPECT_DOUBLE_EQ(a.metrics.critical_path_ns, b.metrics.critical_path_ns);
  EXPECT_EQ(a.metrics.routing_violations, b.metrics.routing_violations);
}

TEST(FlowParallel, SingleRunBitIdenticalToSerial) {
  ScopedLogLevel silence(LogLevel::kSilent);
  const DesignContext context(test_network(), &test_library(), test_floorplan());
  FlowOptions serial = serial_options();
  FlowOptions parallel = parallel_options();
  serial.K = 0.1;
  parallel.K = 0.1;
  expect_identical_run(context.run(serial), context.run(parallel));
}

TEST(FlowParallel, KSweepBitIdenticalToSerial) {
  ScopedLogLevel silence(LogLevel::kSilent);
  const std::vector<double> schedule = {0.0, 0.05, 0.1, 0.2, 0.4};
  // Two contexts so the parallel sweep cannot accidentally reuse serial state.
  const DesignContext serial_context(test_network(), &test_library(), test_floorplan());
  const DesignContext parallel_context(test_network(), &test_library(), test_floorplan());
  const FlowIterationResult serial =
      congestion_aware_flow(serial_context, schedule, serial_options());
  const FlowIterationResult parallel =
      congestion_aware_flow(parallel_context, schedule, parallel_options());
  EXPECT_EQ(serial.converged, parallel.converged);
  EXPECT_EQ(serial.chosen, parallel.chosen);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i)
    expect_identical_run(serial.runs[i], parallel.runs[i]);
}

TEST(FlowParallel, RefineKBitIdenticalToSerial) {
  ScopedLogLevel silence(LogLevel::kSilent);
  // Generous die so k_high = 1 is routable.
  const Floorplan fp = Floorplan::for_cell_area(
      test_network().num_base_gates() * 5.3, 0.40, test_library().tech());
  const DesignContext serial_context(test_network(), &test_library(), fp);
  const DesignContext parallel_context(test_network(), &test_library(), fp);
  constexpr std::uint32_t kIterations = 3;
  const KRefineResult serial =
      refine_k(serial_context, 0.0, 1.0, kIterations, serial_options());
  const KRefineResult parallel =
      refine_k(parallel_context, 0.0, 1.0, kIterations, parallel_options());
  EXPECT_DOUBLE_EQ(serial.k, parallel.k);
  expect_identical_run(serial.best, parallel.best);
  // The bisection probes one K at a time at any thread count: the k_high
  // run plus one run per iteration, nothing speculative.
  EXPECT_EQ(serial.evaluations, kIterations + 1);
  EXPECT_EQ(parallel.evaluations, kIterations + 1);
}

TEST(FlowParallel, RowSearchBitIdenticalToSerial) {
  ScopedLogLevel silence(LogLevel::kSilent);
  const Floorplan tight = Floorplan::for_cell_area(
      test_network().num_base_gates() * 5.3, 0.85, test_library().tech());
  const RowSearchResult serial =
      find_min_routable_rows(test_network(), test_library(), serial_options(),
                             tight.num_rows(), tight.num_rows() + 30);
  const RowSearchResult parallel =
      find_min_routable_rows(test_network(), test_library(), parallel_options(),
                             tight.num_rows(), tight.num_rows() + 30);
  ASSERT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.rows, parallel.rows);
  expect_identical_run(serial.run, parallel.run);
}

TEST(FlowParallel, ThreadCountSweepBitIdenticalAcrossPresets) {
  // The multi-core contract end-to-end: the full flow (pool-parallel
  // matching, then serial covering, placement and routing) at T = 2/4/8
  // reproduces the serial run bit-for-bit on every preset family.
  ScopedLogLevel silence(LogLevel::kSilent);
  const Pla presets[] = {workloads::spla_like(kScale), workloads::pdc_like(kScale),
                         workloads::too_large_like(kScale)};
  for (const Pla& pla : presets) {
    BaseNetwork net = synthesize_base(pla);
    net.build_fanouts();
    const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.3, 0.58,
                                                  test_library().tech());
    const DesignContext context(net, &test_library(), fp);
    FlowOptions serial = serial_options();
    serial.K = 0.1;
    const FlowRun baseline = context.run(serial);
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      FlowOptions options = parallel_options();
      options.K = 0.1;
      options.num_threads = threads;
      const FlowRun run = context.run(options);
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      expect_identical_run(baseline, run);
    }
  }
}

}  // namespace
}  // namespace cals
