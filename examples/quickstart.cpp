/// Quickstart: the whole library in one file.
///
/// Takes a small two-level design (inline PLA text), synthesizes the
/// technology-independent NAND2/INV network, places it, maps it with the
/// congestion-aware mapper, runs global routing and static timing, and
/// prints every intermediate metric.
///
/// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <utility>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "map/netlist_io.hpp"
#include "sop/pla_io.hpp"

using namespace cals;

int main() {
  // 1. A small multi-output design in espresso PLA format (a 4-bit
  //    comparator-ish example: equality, greater-than slices, parity bits).
  const char* pla_text = R"(
.i 8
.o 4
.p 10
1---0--- 1000
-1---0-- 1000
--1---0- 0100
---1---0 0100
11--00-- 0010
--11--00 0010
1-1-0-0- 0001
-1-1-0-0 0001
1111---- 1001
----1111 0110
.e
)";
  Result<Pla> parsed = parse_pla_string(pla_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "quickstart: %s\n", parsed.status().to_string().c_str());
    return 1;
  }
  const Pla pla = std::move(*parsed);
  std::printf("PLA: %u inputs, %u outputs, %zu products\n", pla.num_inputs,
              pla.num_outputs, pla.products.size());

  // 2. Technology-independent synthesis: minimize + decompose to NAND2/INV.
  SynthesisStats synth;
  BaseNetwork net = synthesize_base(pla, &synth);
  std::printf("base network: %u NAND2 + %u INV = %u base gates\n", net.num_nand2(),
              net.num_inv(), net.num_base_gates());

  // 3. Floorplan and the one-time technology-independent placement.
  const Library lib = lib::make_corelib();
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.3,
                                                /*max_utilization=*/0.55, lib.tech());
  std::printf("floorplan: %u rows, %.0f x %.0f um\n", fp.num_rows(), fp.die().width(),
              fp.die().height());
  const DesignContext context(net, &lib, fp);
  std::printf("initial placement HPWL: %.0f um\n\n", context.base_hpwl());

  // 4. Map + place + route + STA, once at minimum area and once congestion-
  //    aware (the paper's K factor, Eq. 5).
  for (double k : {0.0, 0.1}) {
    FlowOptions options;
    options.K = k;
    options.replace_mapped = false;  // paper's incremental placement update
    const FlowRun run = context.run(options);
    std::printf("K = %-4g: %4u cells, %8.1f um^2 (util %.1f%%), "
                "%llu routing violations, wirelength %.0f um,\n"
                "          critical path %s -> %s = %.3f ns\n",
                k, run.metrics.num_cells, run.metrics.cell_area_um2,
                run.metrics.utilization_pct,
                static_cast<unsigned long long>(run.metrics.routing_violations),
                run.metrics.wirelength_um, run.metrics.crit_start.c_str(),
                run.metrics.crit_end.c_str(), run.metrics.critical_path_ns);
  }

  // 5. Export the congestion-aware mapped netlist for downstream tools.
  {
    FlowOptions options;
    options.K = 0.1;
    options.replace_mapped = false;
    const FlowRun run = context.run(options);
    const std::string verilog = write_verilog_string(run.map.netlist, "quickstart");
    std::printf("\nstructural Verilog (first 3 lines of %zu bytes):\n", verilog.size());
    std::size_t pos = 0;
    for (int line = 0; line < 3 && pos != std::string::npos; ++line) {
      const std::size_t next = verilog.find('\n', pos);
      std::printf("  %s\n", verilog.substr(pos, next - pos).c_str());
      pos = next == std::string::npos ? next : next + 1;
    }
  }

  std::printf("\nDone. Next steps: examples/congestion_sweep explores the full K\n"
              "trade-off; examples/full_flow runs the paper's Figure 3 methodology.\n");
  return 0;
}
