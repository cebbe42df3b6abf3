#include "flow/flow.hpp"

#include <algorithm>
#include <mutex>
#include <optional>

#include "util/check.hpp"
#include "util/faults.hpp"
#include "util/log.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cals {
namespace {

/// Fills the metric fields derivable from the phases finished so far, so
/// budget-stopped partial runs still report consistent numbers. A finished
/// evaluation calls it once at the end — identical assignments to the seed
/// flow. Cell count and area come from the mapper's stats.
void fill_metrics(FlowRun& run, const FlowOptions& options, const Floorplan& floorplan,
                  std::uint32_t phases_done) {
  FlowMetrics& m = run.metrics;
  m.k_factor = options.K;
  m.num_rows = floorplan.num_rows();
  m.chip_area_um2 = floorplan.die_area();
  if (phases_done >= 1) {
    m.num_cells = run.map.stats.num_cells;
    m.cell_area_um2 = run.map.stats.cell_area;
    m.utilization_pct = 100.0 * m.cell_area_um2 / floorplan.core_area();
  }
  if (phases_done >= 2) m.hpwl_um = run.placement.hpwl(run.binding.graph);
  if (phases_done >= 3) {
    m.routing_violations = run.route.total_overflow;
    m.routable = run.route.routable();
    m.wirelength_um = run.route.wirelength_um;
    m.rcm_passes = run.repair.passes_run;
    m.rcm_cells_moved = run.repair.cells_moved;
    m.rcm_overflow_removed = run.repair.overflow_removed();
  }
  if (phases_done >= 4) {
    m.critical_path_ns = run.sta.critical.arrival_ns;
    m.crit_start = run.sta.critical.start;
    m.crit_end = run.sta.critical.end;
  }
}

/// Budget guardrail, evaluated at phase boundaries (phases are never
/// preempted): records progress and, when the finished phase overran
/// options.phase_time_budget_s, stops the evaluation with kBudgetExceeded.
/// A null `checked` (plain run()) never stops.
bool over_budget(FlowRun& run, const FlowOptions& options, const Floorplan& floorplan,
                 FlowResult* checked, FlowPhase phase, double seconds) {
  if (checked == nullptr) return false;
  checked->phases_completed = static_cast<std::uint32_t>(phase) + 1;
  if (options.phase_time_budget_s > 0.0 && seconds > options.phase_time_budget_s) {
    checked->status = Status::budget_exceeded(
        strprintf("flow: %s phase took %.3fs (budget %.3fs/phase)",
                  flow_phase_name(phase), seconds, options.phase_time_budget_s));
    CALS_OBS_COUNT("flow.budget_stops", 1);
    fill_metrics(run, options, floorplan, checked->phases_completed);
    return true;
  }
  return false;
}

/// Phase-boundary cancellation checkpoint. Only a non-null token pays
/// anything (one relaxed load); the `flow.cancel` fault point lets
/// fault_sweep.sh exercise the unwind path — its kFail action simulates an
/// explicit cancel, its default throw action a mid-phase crash.
void checkpoint(const FlowOptions& options) {
  if (options.cancel == nullptr) return;
  if (CALS_FAULT_POINT("flow.cancel")) throw CancelledError(CancelCause::kCancelled);
  cancel_point(options.cancel);
}

/// Runs `evaluate(result)` under options.on_error. kBestEffort turns an
/// exception into result.status (typed for cancellation) and keeps
/// phases_completed as the progress made; kPropagate lets it escape.
template <typename Evaluate>
FlowResult guarded(const FlowOptions& options, Evaluate&& evaluate) {
  FlowResult result;
  if (options.on_error != ErrorPolicy::kBestEffort) {
    evaluate(result);
    return result;
  }
  try {
    evaluate(result);
  } catch (const CancelledError& e) {
    // Cooperative stop, not a failure of the flow itself: surface the
    // typed status (kCancelled / kDeadlineExceeded) with the progress
    // made, so the service can distinguish "told to stop" from "broke".
    const std::uint32_t in_phase = std::min(result.phases_completed, kNumFlowPhases - 1);
    const std::string message = strprintf("flow: %s in %s phase", e.what(),
                                          flow_phase_name(static_cast<FlowPhase>(in_phase)));
    result.status = e.cause() == CancelCause::kDeadlineExceeded
                        ? Status::deadline_exceeded(message)
                        : Status::cancelled(message);
    CALS_OBS_COUNT("flow.cancelled", 1);
  } catch (const std::exception& e) {
    // Artifacts of the failing phase are discarded (they may be half
    // built); phases_completed still reports the progress made.
    const std::uint32_t in_phase = std::min(result.phases_completed, kNumFlowPhases - 1);
    result.status = Status::internal(
        strprintf("flow: exception in %s phase: %s",
                  flow_phase_name(static_cast<FlowPhase>(in_phase)), e.what()));
    CALS_OBS_COUNT("flow.best_effort_failures", 1);
  }
  return result;
}

}  // namespace

const char* flow_phase_name(FlowPhase phase) {
  switch (phase) {
    case FlowPhase::kMap: return "map";
    case FlowPhase::kPlace: return "place";
    case FlowPhase::kRoute: return "route";
    case FlowPhase::kSta: return "sta";
  }
  return "unknown";
}

DesignContext::DesignContext(BaseNetwork net, const Library* library, Floorplan floorplan,
                             PlaceOptions place_options)
    : net_(std::move(net)), library_(library), floorplan_(floorplan) {
  CALS_TRACE_SCOPE("flow.context_init");
  net_.compact();
  net_.build_fanouts();

  // The initial placement of the technology-independent netlist: generated
  // once per floorplan, reused by every mapping evaluation.
  const BasePlaceBinding binding = lower_base_network(net_, floorplan_);
  const Placement placement = global_place(binding.graph, floorplan_, place_options);
  base_hpwl_ = placement.hpwl(binding.graph);

  node_positions_.assign(net_.num_nodes(), floorplan_.die().center());
  for (std::uint32_t i = 0; i < net_.num_nodes(); ++i)
    if (binding.node_object[i] != UINT32_MAX)
      node_positions_[i] = placement.pos[binding.node_object[i]];
}

DesignContext::DesignContext(PrecompiledParts parts)
    : net_(std::move(parts.net)),
      library_(parts.library),
      floorplan_(parts.floorplan),
      node_positions_(std::move(parts.node_positions)),
      base_hpwl_(parts.base_hpwl) {
  CALS_CHECK(library_ != nullptr);
  CALS_CHECK_MSG(net_.fanouts_built(), "precompiled network must have fanouts");
  CALS_CHECK(node_positions_.size() == net_.num_nodes());
}

void DesignContext::seed_match_database(std::shared_ptr<const MatchDatabase> db) const {
  CALS_CHECK(db != nullptr);
  const auto key =
      std::make_pair(static_cast<int>(db->partition), static_cast<int>(db->metric));
  std::lock_guard<std::mutex> lock(mutex_);
  match_dbs_[key] = std::move(db);
}

std::shared_ptr<const MatchDatabase> DesignContext::match_database(
    PartitionStrategy partition, DistanceMetric metric) const {
  const auto key = std::make_pair(static_cast<int>(partition), static_cast<int>(metric));
  // Built under the lock: concurrent first calls (the first window of a
  // sweep) wait for one build instead of each building their own.
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = match_dbs_.find(key);
  if (it != match_dbs_.end()) {
    CALS_OBS_COUNT("map.match_cache_hits", 1);
    return it->second;
  }
  CALS_OBS_COUNT("map.match_cache_misses", 1);
  auto db = std::make_shared<const MatchDatabase>(
      build_match_database(net_, *library_, node_positions_, partition, metric));
  return match_dbs_.emplace(key, std::move(db)).first->second;
}

FlowRun DesignContext::run(const FlowOptions& options) const {
  return run_impl(options, nullptr);
}

FlowResult DesignContext::run_checked(const FlowOptions& options) const {
  return guarded(options,
                 [&](FlowResult& result) { result.run = run_impl(options, &result); });
}

FlowResult DesignContext::implement(MapResult mapped, const FlowOptions& options) const {
  return guarded(options, [&](FlowResult& result) {
    FlowRun run;
    run.map = std::move(mapped);
    result.phases_completed = 1;  // the netlist arrives mapped
    implement_phases(run, options, &result);
    result.run = std::move(run);
  });
}

FlowRun DesignContext::run_impl(const FlowOptions& options, FlowResult* checked) const {
  CALS_TRACE_SCOPE_ARG("flow.run", "K", options.K);
  CALS_OBS_COUNT("flow.runs", 1);
  FlowRun run;
  Timer timer;

  // ---- technology mapping ------------------------------------------------
  {
    CALS_TRACE_SCOPE("flow.map");
    CALS_FAULT_POINT("flow.map");
    checkpoint(options);
    CoverOptions cover_options;
    cover_options.K = options.K;
    cover_options.objective = options.objective;
    cover_options.metric = options.metric;
    cover_options.transitive_wire_cost = options.transitive_wire_cost;
    cover_options.cancel = options.cancel;
    const std::shared_ptr<const MatchDatabase> db =
        match_database(options.partition, options.metric);
    run.map = map_network_cached(net_, *library_, node_positions_, *db, cover_options);
  }
  run.metrics.map_seconds = timer.seconds();
  if (!over_budget(run, options, floorplan_, checked, FlowPhase::kMap,
                   run.metrics.map_seconds))
    implement_phases(run, options, checked);
  return run;
}

void DesignContext::implement_phases(FlowRun& run, const FlowOptions& options,
                                     FlowResult* checked) const {
  Timer timer;
  Timer phase_timer;

  // ---- placement -----------------------------------------------------------
  {
    CALS_TRACE_SCOPE("flow.place");
    CALS_FAULT_POINT("flow.place");
    checkpoint(options);
    run.binding = run.map.netlist.lower(floorplan_);
    if (options.replace_mapped) {
      PlaceOptions place_options = options.place;
      place_options.cancel = options.cancel;
      run.placement = global_place(run.binding.graph, floorplan_, place_options);
    } else {
      // The paper's incremental update: instances sit at the center of mass of
      // the base gates they cover; legalization resolves overlaps.
      run.placement = run.map.netlist.seed_placement(run.binding);
    }
    run.legalization = legalize(run.binding.graph, floorplan_, run.placement);
    if (options.refine_passes > 0) {
      RefineOptions refine_options;
      refine_options.passes = options.refine_passes;
      refine_placement(run.binding.graph, floorplan_, run.placement, refine_options);
    }
  }
  run.metrics.place_seconds = phase_timer.seconds();
  if (over_budget(run, options, floorplan_, checked, FlowPhase::kPlace,
                  run.metrics.place_seconds))
    return;

  // ---- routing + congestion -------------------------------------------------
  phase_timer.reset();
  {
    CALS_TRACE_SCOPE("flow.route");
    CALS_FAULT_POINT("flow.route");
    checkpoint(options);
    RoutingGrid grid(floorplan_, options.rgrid);
    RouteOptions route_options = options.route;
    if (options.max_route_iters != 0)
      route_options.max_rrr_iterations = options.max_route_iters;
    route_options.cancel = options.cancel;
    // One routing session per evaluation; repair_passes only decides whether
    // the congestion repair (cals::rcm) resumes it after moving cells.
    Router router(grid, run.binding.graph, run.placement, route_options);
    router.run();
    bool degraded = false;
    if (options.repair_passes > 0) {
      run.congestion_pre = CongestionMap(grid);
      const std::vector<Point> pre_repair_positions = run.placement.pos;
      try {
        CALS_TRACE_SCOPE("flow.repair");
        // kFail action = skip repair quietly; the default throw action
        // exercises the degrade path below (fault_sweep.sh `flow.repair`).
        if (!CALS_FAULT_POINT("flow.repair")) {
          rcm::RepairOptions repair_options;
          repair_options.passes = options.repair_passes;
          repair_options.window = options.repair_window;
          repair_options.max_cells = options.repair_max_cells;
          repair_options.reroute_iterations = route_options.max_rrr_iterations;
          repair_options.cancel = options.cancel;
          run.repair = rcm::repair(router, grid, run.binding.graph, floorplan_,
                                   run.placement, repair_options);
        }
      } catch (const CancelledError&) {
        throw;  // cancellation is a caller decision, not a repair failure
      } catch (const std::exception& e) {
        // Repair is an optimization: any mid-repair failure degrades to the
        // unrepaired result. The placement is restored from the pre-repair
        // snapshot and the (possibly half-updated) routing session is
        // discarded for a fresh route — valid, just not repaired.
        CALS_OBS_COUNT("flow.repair_failures", 1);
        CALS_WARN("flow: congestion repair failed (%s); shipping unrepaired route",
                  e.what());
        run.repair = {};
        run.placement.pos = pre_repair_positions;
        degraded = true;
      }
    }
    run.route = degraded ? route(grid, run.binding.graph, run.placement, route_options)
                         : router.take();
    run.congestion = CongestionMap(grid);
  }
  run.metrics.route_seconds = phase_timer.seconds();
  if (over_budget(run, options, floorplan_, checked, FlowPhase::kRoute,
                  run.metrics.route_seconds))
    return;

  // ---- timing -----------------------------------------------------------------
  phase_timer.reset();
  {
    CALS_TRACE_SCOPE("flow.sta");
    CALS_FAULT_POINT("flow.sta");
    checkpoint(options);
    run.sta = run_sta(run.map.netlist, run.binding, run.route, options.cancel);
  }
  run.metrics.sta_seconds = phase_timer.seconds();
  run.metrics.pd_seconds = timer.seconds();
  debug_check_phase_accounting(run.metrics);
  if (over_budget(run, options, floorplan_, checked, FlowPhase::kSta,
                  run.metrics.sta_seconds))
    return;

  // ---- metrics -----------------------------------------------------------------
  fill_metrics(run, options, floorplan_, kNumFlowPhases);
}

void sweep_evaluations(std::size_t count, std::uint32_t width,
                       const std::function<FlowResult(std::size_t)>& evaluate,
                       const std::function<bool(std::size_t, FlowResult&)>& take) {
  const std::size_t window =
      std::min<std::size_t>(count, width == 0 ? ThreadPool::hardware_threads() : width);
  std::optional<ThreadPool> pool;
  if (window > 1) pool.emplace(static_cast<std::uint32_t>(window));
  std::vector<FlowResult> results(window);
  for (std::size_t begin = 0; begin < count; begin += window) {
    const std::size_t end = std::min(count, begin + window);
    if (end - begin == 1) {
      results[0] = evaluate(begin);
    } else {
      ThreadPool::TaskGroup group(*pool);
      for (std::size_t i = begin; i < end; ++i)
        group.run([&evaluate, &results, begin, i] { results[i - begin] = evaluate(i); });
      group.wait();
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (!take(i, results[i - begin])) return;
      results[i - begin] = {};  // free it before the next window runs
    }
  }
}

FlowIterationResult congestion_aware_flow(const DesignContext& context,
                                          const std::vector<double>& k_schedule,
                                          FlowOptions options) {
  CALS_CHECK_MSG(!k_schedule.empty(), "empty K schedule");
  CALS_TRACE_SCOPE("flow.k_schedule");
  FlowIterationResult result;
  std::uint64_t best_violations = UINT64_MAX;
  sweep_evaluations(
      k_schedule.size(), options.num_threads,
      [&](std::size_t i) {
        FlowOptions point = options;
        point.K = k_schedule[i];
        return context.run_checked(point);
      },
      [&](std::size_t i, FlowResult& evaluated) {
        const double k = k_schedule[i];
        result.runs.push_back(std::move(evaluated.run));
        if (!evaluated.status.ok()) {
          // A guarded evaluation stopped early (budget / injected fault /
          // captured exception): its partial artifacts close the run list
          // and the iteration degrades instead of crashing.
          result.status = evaluated.status;
          CALS_WARN("flow: K=%g evaluation stopped: %s", k,
                    result.status.to_string().c_str());
          return false;
        }
        const FlowRun& run = result.runs.back();
        CALS_INFO("flow: K=%g cells=%u area=%.0f violations=%llu", k,
                  run.metrics.num_cells, run.metrics.cell_area_um2,
                  static_cast<unsigned long long>(run.metrics.routing_violations));
        CALS_OBS_COUNT("flow.k_iterations", 1);
        CALS_TRACE_COUNTER("flow.violations", run.metrics.routing_violations);
        if (run.metrics.routing_violations < best_violations) {
          best_violations = run.metrics.routing_violations;
          result.chosen = result.runs.size() - 1;
        }
        result.converged = run.metrics.routing_violations == 0;
        return !result.converged;
      });
  if (result.status.ok() && !result.converged) {
    const FlowMetrics& best = result.runs[result.chosen].metrics;
    result.status = Status::infeasible(
        strprintf("congestion_aware_flow: schedule exhausted without a routable "
                  "K; best K=%g leaves %llu overflowed edges (add routing "
                  "resources or extend the schedule)",
                  best.k_factor, static_cast<unsigned long long>(best.routing_violations)));
  }
  return result;
}

KRefineResult refine_k(const DesignContext& context, double k_low, double k_high,
                       std::uint32_t iterations, FlowOptions options) {
  CALS_CHECK_MSG(k_low < k_high, "refine_k needs k_low < k_high");
  CALS_TRACE_SCOPE("flow.refine_k");
  KRefineResult result;
  options.K = k_high;
  result.best = context.run(options);
  result.k = k_high;
  ++result.evaluations;
  CALS_CHECK_MSG(result.best.metrics.routing_violations == 0,
                 "refine_k: k_high must be routable");

  for (std::uint32_t i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (k_low + k_high);
    options.K = mid;
    FlowRun run = context.run(options);
    ++result.evaluations;
    if (run.metrics.routing_violations == 0) {
      k_high = mid;
      if (run.metrics.cell_area_um2 <= result.best.metrics.cell_area_um2) {
        result.best = std::move(run);
        result.k = mid;
      }
    } else {
      k_low = mid;
    }
  }
  return result;
}

RowSearchResult find_min_routable_rows(const BaseNetwork& net, const Library& library,
                                       const FlowOptions& options,
                                       std::uint32_t start_rows, std::uint32_t max_rows,
                                       PlaceOptions place_options) {
  CALS_TRACE_SCOPE("flow.row_search");
  RowSearchResult result;
  const std::size_t count =
      start_rows <= max_rows ? std::size_t{max_rows} - start_rows + 1 : 0;
  sweep_evaluations(
      count, options.num_threads,
      [&](std::size_t i) {
        // The layout image is rebuilt per floorplan — the paper notes the
        // absolute wire lengths (and so the K trade-off) change with die size.
        const auto rows = static_cast<std::uint32_t>(start_rows + i);
        const DesignContext context(net, &library,
                                    Floorplan::square_with_rows(rows, library.tech()),
                                    place_options);
        FlowResult evaluated;
        evaluated.run = context.run(options);
        return evaluated;
      },
      [&](std::size_t i, FlowResult& evaluated) {
        result.run = std::move(evaluated.run);
        result.rows = static_cast<std::uint32_t>(start_rows + i);
        result.found = result.run.metrics.routing_violations == 0;
        return !result.found;
      });
  return result;
}

}  // namespace cals
