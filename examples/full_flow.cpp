/// Scenario: run the paper's full Figure 3 methodology on a wiring-limited
/// block — place the technology-independent netlist once, then iterate the
/// congestion-minimization factor K until the congestion map is acceptable,
/// watching the congestion map evolve.
///
/// Usage: full_flow [scale]   (default 0.25 of the paper-size block)

#include <cstdio>
#include <cstdlib>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "route/congestion.hpp"
#include "workloads/presets.hpp"

using namespace cals;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.25;
  SynthesisStats synth;
  BaseNetwork net = synthesize_base(workloads::pdc_like(scale), &synth);
  const Library lib = lib::make_corelib();
  const Floorplan fp =
      Floorplan::for_cell_area(synth.base_gates * 5.3, 0.60, lib.tech());
  std::printf("block: %u base gates, %u rows (%.0f um^2), 3 metal layers\n",
              synth.base_gates, fp.num_rows(), fp.die_area());

  const DesignContext context(net, &lib, fp);
  std::printf("tech-independent netlist placed once (HPWL %.0f um)\n\n",
              context.base_hpwl());

  FlowOptions options;
  options.replace_mapped = false;
  // Guardrails (DESIGN.md §9): bound every phase so a pathological design
  // degrades into a diagnostic instead of an unbounded run.
  options.phase_time_budget_s = 300.0;
  options.on_error = ErrorPolicy::kBestEffort;
  const std::vector<double> k_schedule = {0.0, 0.025, 0.05, 0.1, 0.25, 0.5};

  for (double k : k_schedule) {
    options.K = k;
    const FlowResult checked = context.run_checked(options);
    if (!checked.ok()) {
      std::printf("K = %g evaluation stopped after %u phase(s): %s\n", k,
                  checked.phases_completed, checked.status.to_string().c_str());
      return 1;
    }
    const FlowRun& run = checked.run;
    const CongestionMap& map = run.congestion;

    std::printf("--- K = %g ---------------------------------------------\n", k);
    std::printf("cells %u  area %.0f um^2 (util %.1f%%)  violations %llu  "
                "max edge util %.2f  hotspots %.1f%%\n",
                run.metrics.num_cells, run.metrics.cell_area_um2,
                run.metrics.utilization_pct,
                static_cast<unsigned long long>(run.metrics.routing_violations),
                map.stats().max_utilization, 100.0 * map.stats().hotspot_fraction);
    std::printf("%s", map.ascii_art().c_str());

    if (map.acceptable()) {
      std::printf("\ncongestion OK at K = %g -> commit to detailed place & route.\n", k);
      std::printf("final: %u cells, %.0f um^2, critical path %s -> %s = %.3f ns\n",
                  run.metrics.num_cells, run.metrics.cell_area_um2,
                  run.metrics.crit_start.c_str(), run.metrics.crit_end.c_str(),
                  run.metrics.critical_path_ns);
      return 0;
    }
    std::printf("congestion NOT OK -> raise K and re-map (tech-indep placement reused)\n\n");
  }
  std::printf("K schedule exhausted without an acceptable map: add routing resources\n"
              "(more rows / metal layers) or resynthesize, as the paper prescribes.\n");
  return 0;
}
