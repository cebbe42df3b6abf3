/// Reproduces Figure 3 of the paper: the modified ASIC design flow. The
/// technology-independent netlist is placed once; the flow then iterates the
/// congestion-minimization factor K, re-mapping and re-evaluating the
/// congestion map until it is acceptable, and only then commits to detailed
/// place & route.

#include "common.hpp"
#include "route/congestion.hpp"

using namespace cals;
using namespace cals::bench;

int main(int argc, char** argv) {
  ObsSession obs_session(argc, argv);  // --trace out.json / --metrics out.txt
  print_header("Figure 3 — modified ASIC design flow (K iteration loop)");

  const Library lib = lib::make_corelib();
  SynthesisStats synth;
  BaseNetwork net = synthesize_base(workloads::spla_like(scale()), &synth);
  const Floorplan fp =
      Floorplan::square_with_rows(scaled_rows(workloads::spla_cliff_rows()), lib.tech());
  std::printf("SPLA-like: %u base gates, %u rows\n\n", synth.base_gates, fp.num_rows());

  Timer total;
  const DesignContext context(net, &lib, fp);
  std::printf("technology-independent placement done once: HPWL %.0f um\n\n",
              context.base_hpwl());

  // The flow's K schedule: start at 0 and raise until the congestion map is
  // acceptable (the "Is congestion OK?" diamond).
  const std::vector<double> schedule = {0.0, 0.025, 0.05, 0.1, 0.25};
  const FlowIterationResult result =
      congestion_aware_flow(context, schedule, table_flow_options(0.0));

  Table iterations({"Iteration", "K", "Cell Area (um2)", "Util %", "Violations",
                    "Max edge util", "map/place/route/sta (s)", "Congestion OK?"});
  iterations.set_caption("Flow iterations:");
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const FlowRun& run = result.runs[i];
    iterations.add_row(
        {fmt_i(static_cast<long long>(i + 1)), strprintf("%g", run.metrics.k_factor),
         fmt_f(run.metrics.cell_area_um2, 0), fmt_f(run.metrics.utilization_pct, 2),
         fmt_i(static_cast<long long>(run.metrics.routing_violations)),
         fmt_f(run.congestion.stats().max_utilization, 2), fmt_phase_seconds(run.metrics),
         run.metrics.routing_violations == 0 ? "yes -> place&route" : "no -> raise K"});
  }
  print_table(iterations);

  if (result.converged) {
    const FlowRun& chosen = result.runs[result.chosen];
    std::printf("converged at K = %g after %zu iteration(s); final netlist: %u cells, "
                "%.0f um^2, critical path %.2f ns (%s -> %s)\n",
                chosen.metrics.k_factor, result.runs.size(), chosen.metrics.num_cells,
                chosen.metrics.cell_area_um2, chosen.metrics.critical_path_ns,
                chosen.metrics.crit_start.c_str(), chosen.metrics.crit_end.c_str());
  } else {
    std::printf("did not converge (%s): the designer would now add routing "
                "resources (rows/layers) or resynthesize, per the paper's flow.\n",
                result.status.to_string().c_str());
  }

  // Congestion-map snapshots (the artifact the flow's decision looks at).
  std::printf("\ncongestion map at K = 0 ('X' = over capacity):\n%s\n",
              result.runs.front().congestion.ascii_art().c_str());
  if (result.converged)
    std::printf("congestion map at the accepted K = %g:\n%s\n",
                result.runs[result.chosen].metrics.k_factor,
                result.runs[result.chosen].congestion.ascii_art().c_str());
  std::printf("total: %.1fs\n", total.seconds());
  return 0;
}
