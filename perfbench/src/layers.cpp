#include "layers.hpp"

#include <cmath>

#include "flow/baselines.hpp"
#include "rcm/rcm.hpp"
#include "sop/pla_io.hpp"
#include "svc/job.hpp"
#include "util/strings.hpp"
#include "workloads/presets.hpp"

#include "common.hpp"

namespace perfbench {

using namespace cals;

Design make_design(double scale, std::uint64_t seed, std::size_t index) {
  const bool spla = index % 2 == 0;
  PlaGenSpec spec = spla ? workloads::spla_like_spec(scale) : workloads::pdc_like_spec(scale);
  spec.seed = mix_seed(seed, index);
  return Design{strprintf("%s-%zu", spla ? "spla" : "pdc", index),
                write_pla_string(generate_pla(spec))};
}

FlowOptions paper_options(std::uint32_t num_threads) {
  FlowOptions options;
  options.replace_mapped = false;
  options.rgrid.capacity_scale = 3.45;
  options.route.max_rrr_iterations = 40;
  options.num_threads = num_threads;
  options.on_error = ErrorPolicy::kBestEffort;
  return options;
}

Floorplan size_floorplan(std::uint32_t base_gates, double util, FloorplanRule rule,
                         const TechParams& tech) {
  // 5.3 um^2 per base gate is the service's area estimate (build_job_design).
  const double cell_area = base_gates * 5.3;
  if (rule == FloorplanRule::kJobSpec) return Floorplan::for_cell_area(cell_area, util, tech);
  // Row quantization moves a square die's utilization by up to ~4% between
  // designs of nearly equal size; at the routability cliff that alone flips
  // designs between one and several K evaluations. Keep the row count of
  // the square die and trim its width so every design sits at `util`.
  const double core = cell_area / util;
  const auto rows = static_cast<std::uint32_t>(
      std::max(1L, std::lround(std::sqrt(core) / tech.row_height_um)));
  return Floorplan(rows, core / (rows * tech.row_height_um), tech);
}

Result<BuiltContext> build_context(const std::string& pla_text, const Library* library,
                                   double util, FloorplanRule rule, ThreadPool* pool,
                                   Tracer* tracer) {
  BaseNetwork net;
  SynthesisStats stats;
  {
    SpanScope span(tracer, "parse_pla_string", "sop");
    Result<Pla> pla = parse_pla_string(pla_text);
    if (!pla.ok()) return pla.status();
    SpanScope synth(tracer, "synthesize_base", "sop");
    net = synthesize_base(*pla, &stats);
  }
  const Floorplan floorplan = size_floorplan(net.num_base_gates(), util, rule, library->tech());

  std::vector<Point> positions;
  double base_hpwl = 0.0;
  {
    SpanScope span(tracer, "lower_base_network+global_place", "place.global");
    net.compact();
    net.build_fanouts();
    const BasePlaceBinding binding = lower_base_network(net, floorplan);
    const Placement placement = global_place(binding.graph, floorplan, PlaceOptions{}, pool);
    base_hpwl = placement.hpwl(binding.graph);
    positions.assign(net.num_nodes(), floorplan.die().center());
    for (std::uint32_t i = 0; i < net.num_nodes(); ++i)
      if (binding.node_object[i] != UINT32_MAX)
        positions[i] = placement.pos[binding.node_object[i]];
  }
  BuiltContext built;
  built.context = std::make_unique<DesignContext>(DesignContext::PrecompiledParts{
      std::move(net), library, floorplan, std::move(positions), base_hpwl});
  built.base_gates = stats.base_gates;
  return built;
}

std::shared_ptr<const MatchDatabase> build_database(const DesignContext& context,
                                                    const FlowOptions& options,
                                                    ThreadPool* pool, Tracer* tracer) {
  SpanScope span(tracer, "build_match_database", "map.match_db");
  return std::make_shared<const MatchDatabase>(
      build_match_database(context.network(), context.library(), context.node_positions(),
                           options.partition, options.metric, pool));
}

FlowRun evaluate_layers(const DesignContext& context, const MatchDatabase& database,
                        const FlowOptions& options, ThreadPool* pool, Tracer* tracer) {
  const Floorplan& floorplan = context.floorplan();
  FlowRun run;
  {
    SpanScope span(tracer, "map_network_cached", "map.cover");
    CoverOptions cover;
    cover.K = options.K;
    cover.objective = options.objective;
    cover.metric = options.metric;
    cover.transitive_wire_cost = options.transitive_wire_cost;
    run.map = map_network_cached(context.network(), context.library(),
                                 context.node_positions(), database, cover, pool);
  }
  {
    // Global placement (FM) is the place.global layer; the mapper's
    // incremental update — seed positions, then legalization — is
    // accounted with the legalizer.
    SpanScope span(tracer,
                   options.replace_mapped ? "lower+global_place" : "lower+seed_placement",
                   options.replace_mapped ? "place.global" : "place.legalize");
    run.binding = run.map.netlist.lower(floorplan);
    run.placement = options.replace_mapped
                        ? global_place(run.binding.graph, floorplan, options.place, pool)
                        : run.map.netlist.seed_placement(run.binding);
  }
  {
    SpanScope span(tracer, "legalize", "place.legalize");
    run.legalization = legalize(run.binding.graph, floorplan, run.placement);
  }
  RoutingGrid grid(floorplan, options.rgrid);
  RouteOptions route_options = options.route;
  if (options.max_route_iters != 0) route_options.max_rrr_iterations = options.max_route_iters;
  if (options.repair_passes == 0) {
    SpanScope span(tracer, "route", "route");
    run.route = route(grid, run.binding.graph, run.placement, route_options, pool);
  } else {
    Router router(grid, run.binding.graph, run.placement, route_options, pool);
    {
      SpanScope span(tracer, "Router::run", "route");
      router.run();
    }
    {
      SpanScope span(tracer, "rcm::repair", "rcm");
      rcm::RepairOptions repair_options;
      repair_options.passes = options.repair_passes;
      repair_options.window = options.repair_window;
      repair_options.max_cells = options.repair_max_cells;
      repair_options.reroute_iterations = route_options.max_rrr_iterations;
      run.repair = rcm::repair(router, grid, run.binding.graph, floorplan, run.placement,
                               repair_options);
    }
    run.route = router.take();
  }
  {
    SpanScope span(tracer, "run_sta", "sta");
    run.sta = run_sta(run.map.netlist, run.binding, run.route);
  }

  FlowMetrics& m = run.metrics;
  m.k_factor = options.K;
  m.num_rows = floorplan.num_rows();
  m.chip_area_um2 = floorplan.die_area();
  m.num_cells = run.map.stats.num_cells;
  m.cell_area_um2 = run.map.stats.cell_area;
  m.utilization_pct = 100.0 * m.cell_area_um2 / floorplan.core_area();
  m.hpwl_um = run.placement.hpwl(run.binding.graph);
  m.routing_violations = run.route.total_overflow;
  m.routable = run.route.routable();
  m.wirelength_um = run.route.wirelength_um;
  m.rcm_passes = run.repair.passes_run;
  m.rcm_cells_moved = run.repair.cells_moved;
  m.rcm_overflow_removed = run.repair.overflow_removed();
  m.critical_path_ns = run.sta.critical.arrival_ns;
  m.crit_start = run.sta.critical.start;
  m.crit_end = run.sta.critical.end;
  return run;
}

bool same_qor(const FlowMetrics& a, const FlowMetrics& b) {
  return a.k_factor == b.k_factor && a.num_cells == b.num_cells &&
         a.cell_area_um2 == b.cell_area_um2 && a.utilization_pct == b.utilization_pct &&
         a.routing_violations == b.routing_violations && a.routable == b.routable &&
         a.wirelength_um == b.wirelength_um && a.hpwl_um == b.hpwl_um &&
         a.critical_path_ns == b.critical_path_ns && a.crit_start == b.crit_start &&
         a.crit_end == b.crit_end && a.num_rows == b.num_rows &&
         a.chip_area_um2 == b.chip_area_um2 && a.rcm_passes == b.rcm_passes &&
         a.rcm_cells_moved == b.rcm_cells_moved &&
         a.rcm_overflow_removed == b.rcm_overflow_removed;
}

std::string describe_qor(const FlowMetrics& m) {
  return strprintf("K=%.17g cells=%u area=%.17g viol=%llu wl=%.17g hpwl=%.17g cp=%.17g rcm=%u/%u",
                   m.k_factor, m.num_cells, m.cell_area_um2,
                   static_cast<unsigned long long>(m.routing_violations), m.wirelength_um,
                   m.hpwl_um, m.critical_path_ns, m.rcm_passes, m.rcm_cells_moved);
}

std::string metrics_json(const FlowMetrics& m) {
  svc::JsonObjectWriter writer;
  svc::append_metrics_fields(writer, m);
  return std::move(writer).finish();
}

}  // namespace perfbench
