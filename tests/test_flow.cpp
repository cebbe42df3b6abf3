#include <gtest/gtest.h>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "workloads/plagen.hpp"

namespace cals {
namespace {

Pla small_pla(std::uint64_t seed = 21) {
  PlaGenSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 8;
  spec.num_products = 150;
  spec.care_probability = 0.45;
  spec.outputs_per_product = 2.0;
  spec.seed = seed;
  return generate_pla(spec);
}

TEST(Baselines, SisModeSmallerButMoreShared) {
  const Pla pla = small_pla();
  SynthesisStats base_stats;
  SynthesisStats sis_stats;
  const BaseNetwork base = synthesize_base(pla, &base_stats);
  const BaseNetwork sis = synthesize_sis_mode(pla, &sis_stats);
  EXPECT_LT(sis_stats.base_gates, base_stats.base_gates);
  EXPECT_GT(sis_stats.extract.and_divisors + sis_stats.extract.or_divisors, 0u);
  EXPECT_EQ(base.pis().size(), sis.pis().size());
  EXPECT_EQ(base.pos().size(), sis.pos().size());
}

TEST(Flow, RunProducesConsistentMetrics) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla());
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.55, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  const FlowRun run = context.run(options);

  EXPECT_EQ(run.metrics.num_cells, run.map.netlist.num_instances());
  EXPECT_NEAR(run.metrics.cell_area_um2, run.map.netlist.total_cell_area(), 1e-6);
  EXPECT_NEAR(run.metrics.utilization_pct,
              100.0 * run.metrics.cell_area_um2 / fp.core_area(), 1e-9);
  EXPECT_EQ(run.metrics.routable, run.metrics.routing_violations == 0);
  EXPECT_EQ(run.metrics.num_rows, fp.num_rows());
  EXPECT_GT(run.metrics.wirelength_um, 0.0);
  EXPECT_GT(run.metrics.critical_path_ns, 0.0);
  EXPECT_FALSE(run.metrics.crit_start.empty());
  EXPECT_FALSE(run.metrics.crit_end.empty());
  EXPECT_EQ(run.metrics.k_factor, 0.0);
}

TEST(Flow, NodePositionsInsideDie) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(22));
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.55, lib.tech());
  const DesignContext context(net, &lib, fp);
  for (const Point& p : context.node_positions())
    EXPECT_TRUE(fp.die().contains(p));
  EXPECT_GT(context.base_hpwl(), 0.0);
}

TEST(Flow, ContextReusableAcrossK) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(23));
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.55, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  options.K = 0.0;
  const FlowRun r0 = context.run(options);
  options.K = 0.5;
  const FlowRun r1 = context.run(options);
  // Larger K can only hold or grow the DP's primary (area) term.
  EXPECT_GE(r1.metrics.cell_area_um2, r0.metrics.cell_area_um2 * 0.99);
  EXPECT_EQ(r1.metrics.k_factor, 0.5);
}

TEST(Flow, DeterministicAcrossRuns) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(24));
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.55, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.K = 0.1;
  options.replace_mapped = false;
  const FlowRun r1 = context.run(options);
  const FlowRun r2 = context.run(options);
  EXPECT_EQ(r1.metrics.routing_violations, r2.metrics.routing_violations);
  EXPECT_DOUBLE_EQ(r1.metrics.wirelength_um, r2.metrics.wirelength_um);
  EXPECT_DOUBLE_EQ(r1.metrics.critical_path_ns, r2.metrics.critical_path_ns);
}

TEST(Flow, CongestionAwareIterationStopsWhenRoutable) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(25));
  // Generous die: already routable at K = 0, so the loop stops after one run.
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.35, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  const FlowIterationResult result =
      congestion_aware_flow(context, {0.0, 0.05, 0.1}, options);
  ASSERT_FALSE(result.runs.empty());
  if (result.converged) {
    EXPECT_EQ(result.runs[result.chosen].metrics.routing_violations, 0u);
    EXPECT_EQ(result.chosen, result.runs.size() - 1);
  }
  EXPECT_LE(result.runs.size(), 3u);
}

TEST(Flow, RowSearchFindsRoutableDie) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(26));
  FlowOptions options;
  options.replace_mapped = false;
  // Start from a hopeless 60%-utilization die and search upward.
  const Floorplan tight = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.85, lib.tech());
  const RowSearchResult result = find_min_routable_rows(
      net, lib, options, tight.num_rows(), tight.num_rows() + 30);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.run.metrics.routing_violations, 0u);
  EXPECT_EQ(result.run.metrics.num_rows, result.rows);
}

TEST(Flow, RefineKFindsCheaperRoutablePoint) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(28));
  // Generous die: K=1 certainly routes; bisection may find a cheaper K.
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.40, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  const KRefineResult refined = refine_k(context, 0.0, 1.0, 3, options);
  EXPECT_EQ(refined.best.metrics.routing_violations, 0u);
  EXPECT_GE(refined.evaluations, 1u);
  EXPECT_LE(refined.k, 1.0);
  // The refined area can never exceed the k_high area.
  options.K = 1.0;
  const FlowRun at_high = context.run(options);
  EXPECT_LE(refined.best.metrics.cell_area_um2, at_high.metrics.cell_area_um2 + 1e-6);
}

TEST(FlowDeath, RefineKRequiresRoutableHigh) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(29));
  // Impossible die: nothing routes; refine_k must refuse.
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.98, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  options.route.max_rrr_iterations = 4;
  options.rgrid.capacity_scale = 0.2;  // guarantee overflow
  EXPECT_DEATH(refine_k(context, 0.0, 0.5, 1, options), "routable");
}

TEST(Flow, RefinePassesImproveOrMatchWirelength) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(30));
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.55, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  const FlowRun plain = context.run(options);
  options.refine_passes = 2;
  const FlowRun refined = context.run(options);
  // Refinement strictly reduces HPWL; routed wirelength follows closely.
  EXPECT_LT(refined.metrics.hpwl_um, plain.metrics.hpwl_um);
  EXPECT_LT(refined.metrics.wirelength_um, plain.metrics.wirelength_um * 1.02);
}

TEST(Flow, ReplacedPlacementAlsoWorks) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(27));
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.5, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = true;
  const FlowRun run = context.run(options);
  EXPECT_GT(run.metrics.hpwl_um, 0.0);
}

/// Same placement, routes, congestion maps, timing and QoR metrics.
void expect_same_run(const FlowRun& a, const FlowRun& b) {
  EXPECT_EQ(a.placement.pos, b.placement.pos);
  ASSERT_EQ(a.route.nets.size(), b.route.nets.size());
  for (std::size_t i = 0; i < a.route.nets.size(); ++i)
    EXPECT_EQ(a.route.nets[i].paths, b.route.nets[i].paths) << "net " << i;
  EXPECT_EQ(a.route.rrr_iterations, b.route.rrr_iterations);
  EXPECT_EQ(a.congestion.to_csv(), b.congestion.to_csv());
  EXPECT_EQ(a.congestion_pre.to_csv(), b.congestion_pre.to_csv());
  EXPECT_EQ(a.sta.critical.arrival_ns, b.sta.critical.arrival_ns);
  const FlowMetrics& m = a.metrics;
  const FlowMetrics& n = b.metrics;
  EXPECT_EQ(m.k_factor, n.k_factor);
  EXPECT_EQ(m.num_cells, n.num_cells);
  EXPECT_EQ(m.cell_area_um2, n.cell_area_um2);
  EXPECT_EQ(m.hpwl_um, n.hpwl_um);
  EXPECT_EQ(m.routing_violations, n.routing_violations);
  EXPECT_EQ(m.wirelength_um, n.wirelength_um);
  EXPECT_EQ(m.critical_path_ns, n.critical_path_ns);
  EXPECT_EQ(m.crit_start, n.crit_start);
  EXPECT_EQ(m.crit_end, n.crit_end);
  EXPECT_EQ(m.rcm_passes, n.rcm_passes);
  EXPECT_EQ(m.rcm_cells_moved, n.rcm_cells_moved);
  EXPECT_EQ(m.rcm_overflow_removed, n.rcm_overflow_removed);
}

TEST(Flow, ImplementReproducesRunFromItsNetlist) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(small_pla(31));
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.6, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.K = 0.05;
  options.replace_mapped = false;
  options.num_threads = 1;
  options.rgrid.capacity_scale = 0.6;  // overflow left for the router and repair

  for (const std::uint32_t passes : {0u, 2u}) {
    SCOPED_TRACE(passes);
    options.repair_passes = passes;
    const FlowRun run = context.run(options);
    ASSERT_GT(run.congestion.stats().total_overflow + run.repair.overflow_removed(), 0u);
    const FlowResult again = context.implement(run.map, options);
    ASSERT_TRUE(again.ok()) << again.status.to_string();
    EXPECT_EQ(again.phases_completed, kNumFlowPhases);
    expect_same_run(again.run, run);
    EXPECT_EQ(again.run.congestion_pre.nx() > 0, passes != 0);
  }

  // The physical knobs reach a netlist passed in: implement under refine
  // passes or a rip-up cap reproduces the run that used them, and moves off
  // the run that did not.
  options.repair_passes = 0;
  const FlowRun plain = context.run(options);
  FlowOptions refined = options;
  refined.refine_passes = 2;
  const FlowResult refined_again = context.implement(plain.map, refined);
  ASSERT_TRUE(refined_again.ok());
  expect_same_run(refined_again.run, context.run(refined));
  EXPECT_NE(refined_again.run.placement.pos, plain.placement.pos);

  FlowOptions capped = options;
  capped.max_route_iters = 1;
  const FlowResult capped_again = context.implement(plain.map, capped);
  ASSERT_TRUE(capped_again.ok());
  expect_same_run(capped_again.run, context.run(capped));
  EXPECT_LE(capped_again.run.route.rrr_iterations, 1u);
  EXPECT_LT(capped_again.run.route.rrr_iterations, plain.route.rrr_iterations);
}

}  // namespace
}  // namespace cals
