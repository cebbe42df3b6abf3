/// Threads between evaluations only (DESIGN.md §6): one evaluation runs on
/// its caller's thread, and a sweep (K windows, row windows) gives results
/// bit-identical to the serial path (num_threads = 1) — same covers, cell
/// areas, wirelengths and critical paths — on no more workers than it has
/// evaluations.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "util/faults.hpp"
#include "util/log.hpp"
#include "util/obs.hpp"
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

TEST(FlowParallel, SingleEvaluationNeverReachesThePool) {
  // num_threads sizes sweeps only: one evaluation at num_threads = 4 runs on
  // this thread, so an armed pool-dispatch fault is never even visited.
  ScopedLogLevel silence(LogLevel::kSilent);
  const DesignContext context(test_network(), &test_library(), test_floorplan());
  FlowOptions options = parallel_options();
  options.K = 0.1;
  options.on_error = ErrorPolicy::kBestEffort;
  faults::reset();
  faults::arm("pool.dispatch", faults::FaultSpec{});
  const FlowResult result = context.run_checked(options);
  const std::uint64_t visits = faults::visits("pool.dispatch");
  faults::reset();
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(visits, 0u);
}

TEST(FlowParallel, SweepHandsResultsOverInOrderUntilStopped) {
  // Windows of `width`: stopping at index 4 of 10 at width 3 has evaluated
  // exactly the windows [0, 3) and [3, 6), whatever the scheduling.
  for (const std::uint32_t width : {1u, 3u}) {
    std::atomic<std::size_t> evaluated{0};
    std::vector<std::size_t> taken;
    sweep_evaluations(
        10, width,
        [&](std::size_t i) {
          ++evaluated;
          FlowResult result;
          result.run.metrics.num_rows = static_cast<std::uint32_t>(i);
          return result;
        },
        [&](std::size_t i, FlowResult& result) {
          EXPECT_EQ(result.run.metrics.num_rows, i);
          taken.push_back(i);
          return i < 4;
        });
    EXPECT_EQ(taken, (std::vector<std::size_t>{0, 1, 2, 3, 4})) << "width " << width;
    EXPECT_EQ(evaluated.load(), width == 1 ? 5u : 6u);
  }
}

TEST(FlowParallel, SweepNeverStartsMoreWorkersThanEvaluations) {
  // A 3-point K schedule at num_threads = 16 needs three workers, not 16.
  ScopedLogLevel silence(LogLevel::kSilent);
  const DesignContext context(test_network(), &test_library(), test_floorplan());
  FlowOptions options = serial_options();
  options.num_threads = 16;
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  const FlowIterationResult sweep =
      congestion_aware_flow(context, {0.0, 0.05, 0.1}, options);
  obs::set_enabled(false);
  ASSERT_FALSE(sweep.runs.empty());
  const double workers = obs::Registry::instance().gauge("pool.workers").value();
  EXPECT_GT(workers, 0.0) << "the three evaluations ran on a pool";
  EXPECT_LE(workers, 3.0);
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

}  // namespace
}  // namespace cals
