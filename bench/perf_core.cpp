/// Throughput microbenchmarks (google-benchmark) for the core algorithms:
/// synthesis, partitioning, matching+covering, placement, routing. These are
/// engineering benchmarks, not paper reproductions — they guard against
/// performance regressions in the pieces the table benches run hundreds of
/// times.

#include <benchmark/benchmark.h>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "map/mapper.hpp"
#include "place/partition_place.hpp"
#include "route/router.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "workloads/presets.hpp"

namespace {

using namespace cals;

constexpr double kScale = 0.1;  // ~2.3k base gates

const Pla& test_pla() {
  static const Pla pla = workloads::spla_like(kScale);
  return pla;
}

const BaseNetwork& test_network() {
  static const BaseNetwork net = [] {
    BaseNetwork n = synthesize_base(test_pla());
    n.build_fanouts();
    return n;
  }();
  return net;
}

const Library& test_library() {
  static const Library lib = lib::make_corelib();
  return lib;
}

const Floorplan& test_floorplan() {
  static const Floorplan fp =
      Floorplan::for_cell_area(test_network().num_base_gates() * 5.3, 0.58,
                               test_library().tech());
  return fp;
}

const DesignContext& test_context() {
  static const DesignContext context(test_network(), &test_library(), test_floorplan());
  return context;
}

void BM_SynthesizeBase(benchmark::State& state) {
  for (auto _ : state) {
    BaseNetwork net = synthesize_base(test_pla());
    benchmark::DoNotOptimize(net.num_base_gates());
  }
  state.SetItemsProcessed(state.iterations() * test_network().num_base_gates());
}
BENCHMARK(BM_SynthesizeBase)->Unit(benchmark::kMillisecond);

void BM_DivisorExtraction(benchmark::State& state) {
  for (auto _ : state) {
    BaseNetwork net = synthesize_sis_mode(test_pla());
    benchmark::DoNotOptimize(net.num_base_gates());
  }
}
BENCHMARK(BM_DivisorExtraction)->Unit(benchmark::kMillisecond);

void BM_GlobalPlaceBaseNetwork(benchmark::State& state) {
  const auto binding = lower_base_network(test_network(), test_floorplan());
  for (auto _ : state) {
    const Placement placement = global_place(binding.graph, test_floorplan());
    benchmark::DoNotOptimize(placement.pos.data());
  }
  state.SetItemsProcessed(state.iterations() * binding.graph.num_objects);
}
BENCHMARK(BM_GlobalPlaceBaseNetwork)->Unit(benchmark::kMillisecond);

void BM_MapMinArea(benchmark::State& state) {
  for (auto _ : state) {
    const MapResult result =
        map_network(test_network(), test_library(), test_context().node_positions(), {});
    benchmark::DoNotOptimize(result.stats.cell_area);
  }
  state.SetItemsProcessed(state.iterations() * test_network().num_base_gates());
}
BENCHMARK(BM_MapMinArea)->Unit(benchmark::kMillisecond);

void BM_MapCongestionAware(benchmark::State& state) {
  MapperOptions options;
  options.cover.K = 0.1;
  for (auto _ : state) {
    const MapResult result = map_network(test_network(), test_library(),
                                         test_context().node_positions(), options);
    benchmark::DoNotOptimize(result.stats.cell_area);
  }
  state.SetItemsProcessed(state.iterations() * test_network().num_base_gates());
}
BENCHMARK(BM_MapCongestionAware)->Unit(benchmark::kMillisecond);

void BM_RouteMappedNetlist(benchmark::State& state) {
  const MapResult mapped =
      map_network(test_network(), test_library(), test_context().node_positions(), {});
  const auto binding = mapped.netlist.lower(test_floorplan());
  Placement placement = mapped.netlist.seed_placement(binding);
  legalize(binding.graph, test_floorplan(), placement);
  RGridOptions grid_options;
  grid_options.capacity_scale = 3.5;
  for (auto _ : state) {
    RoutingGrid grid(test_floorplan(), grid_options);
    const RouteResult result = route(grid, binding.graph, placement);
    benchmark::DoNotOptimize(result.wirelength_gcells);
  }
  state.SetItemsProcessed(state.iterations() * binding.graph.nets.size());
}
BENCHMARK(BM_RouteMappedNetlist)->Unit(benchmark::kMillisecond);

/// Shared placed-netlist setup for the router benchmarks: the spla-like
/// preset mapped at min-area and seed-placed + legalized, as the table
/// benches route it hundreds of times.
struct RouteBenchSetup {
  MappedPlaceBinding binding;
  Placement placement;

  RouteBenchSetup() {
    const MapResult mapped =
        map_network(test_network(), test_library(), test_context().node_positions(), {});
    binding = mapped.netlist.lower(test_floorplan());
    placement = mapped.netlist.seed_placement(binding);
    legalize(binding.graph, test_floorplan(), placement);
  }

  static const RouteBenchSetup& get() {
    static const RouteBenchSetup setup;
    return setup;
  }
};

void BM_RoutePattern(benchmark::State& state) {
  // Initial L-shape pattern pass only (no rip-up): the cost of pricing and
  // committing both L-shapes per segment. arg: 1 = congested supply, 0 =
  // uncongested.
  const RouteBenchSetup& setup = RouteBenchSetup::get();
  RGridOptions grid_options;
  grid_options.capacity_scale = state.range(0) ? 1.6 : 3.5;
  RouteOptions route_options;
  route_options.max_rrr_iterations = 0;
  RoutingGrid grid(test_floorplan(), grid_options);
  for (auto _ : state) {
    const RouteResult result =
        route(grid, setup.binding.graph, setup.placement, route_options);
    benchmark::DoNotOptimize(result.wirelength_gcells);
  }
  state.SetItemsProcessed(state.iterations() * setup.binding.graph.nets.size());
}
BENCHMARK(BM_RoutePattern)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RouteRRR(benchmark::State& state) {
  // Full negotiated route (pattern + rip-up-and-reroute to convergence or
  // cutoff). arg: 1 = congested supply (the spla-like preset near the
  // routability cliff, heavy maze rerouting), 0 = uncongested.
  const RouteBenchSetup& setup = RouteBenchSetup::get();
  RGridOptions grid_options;
  grid_options.capacity_scale = state.range(0) ? 1.6 : 3.5;
  RoutingGrid grid(test_floorplan(), grid_options);
  std::uint64_t iterations = 0;
  std::uint64_t maze_pops = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    const RouteResult result = route(grid, setup.binding.graph, setup.placement);
    iterations = result.rrr_iterations;
    maze_pops = rerouted = candidates = 0;
    for (const RouteIterStats& it : result.iter_stats) {
      maze_pops += it.maze_pops;
      rerouted += it.rerouted;
      candidates += it.candidates;
    }
    benchmark::DoNotOptimize(result.total_overflow);
  }
  state.counters["rrr_iters"] = static_cast<double>(iterations);
  state.counters["maze_pops"] = static_cast<double>(maze_pops);
  state.counters["rerouted"] = static_cast<double>(rerouted);
  state.counters["candidates"] = static_cast<double>(candidates);
  state.SetItemsProcessed(state.iterations() * setup.binding.graph.nets.size());
}
BENCHMARK(BM_RouteRRR)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MapCached(benchmark::State& state) {
  // The per-K path of a sweep: DP cover + realize over a prebuilt match
  // database. Compare against BM_MapCongestionAware (which redoes partition
  // + matching every call). arg: worker threads (1 = serial DP).
  const std::uint32_t arg = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t threads = arg == 0 ? ThreadPool::hardware_threads() : arg;
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  const MatchDatabase db = build_match_database(
      test_network(), test_library(), test_context().node_positions(),
      PartitionStrategy::kPlacementDriven, DistanceMetric::kManhattan, pool_ptr);
  CoverOptions cover;
  cover.K = 0.1;
  for (auto _ : state) {
    const MapResult result = map_network_cached(
        test_network(), test_library(), test_context().node_positions(), db, cover,
        pool_ptr);
    benchmark::DoNotOptimize(result.stats.cell_area);
  }
  state.SetItemsProcessed(state.iterations() * test_network().num_base_gates());
}
BENCHMARK(BM_MapCached)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_KSweep(benchmark::State& state) {
  // The paper's central experiment shape: one congestion_aware_flow call
  // over a 5-point K schedule. arg 1 = serial (no pool); arg 0 = hardware
  // threads, which evaluates K windows concurrently and parallelizes
  // matching and covering inside each evaluation.
  const ScopedLogLevel silence(LogLevel::kSilent);
  const std::vector<double> schedule = {0.0, 0.05, 0.1, 0.2, 0.4};
  FlowOptions options;
  options.replace_mapped = false;
  // Routing supply just below the cliff so no schedule point converges
  // early: every sweep evaluates all 5 Ks, like the unroutable region of
  // Tables 2/4 (violations shrink with K but stay positive).
  options.rgrid.capacity_scale = 1.6;
  options.route.max_rrr_iterations = 6;
  options.num_threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    // A fresh context per iteration: the match cache must be rebuilt inside
    // the timed region, exactly as a table bench would pay for it.
    const DesignContext context(test_network(), &test_library(), test_floorplan());
    const FlowIterationResult result =
        congestion_aware_flow(context, schedule, options);
    benchmark::DoNotOptimize(result.runs.data());
  }
  state.SetItemsProcessed(state.iterations() * schedule.size());
}
BENCHMARK(BM_KSweep)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_FullFlowRun(benchmark::State& state) {
  FlowOptions options;
  options.K = 0.1;
  options.replace_mapped = false;
  options.rgrid.capacity_scale = 3.5;
  for (auto _ : state) {
    const FlowRun run = test_context().run(options);
    benchmark::DoNotOptimize(run.metrics.wirelength_um);
  }
}
BENCHMARK(BM_FullFlowRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
