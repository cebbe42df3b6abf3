/// Scenario: bring-your-own standard-cell library. Defines a small custom
/// library in the genlib-like text format (pattern trees + linear timing),
/// maps the same BLIF design against it and against the built-in
/// CORELIB-like library, and compares the results.
///
/// Usage: custom_library [design.blif]

#include <cstdio>
#include <utility>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "library/genlib.hpp"
#include "netlist/blif.hpp"
#include "netlist/sim.hpp"
#include "util/rng.hpp"

using namespace cals;

namespace {

// A deliberately NAND-poor library: no complex cells, so the mapper has to
// assemble everything from INV/NAND2/NOR2 — area goes up, depth goes up.
const char* kTinyLib = R"(
LIBRARY tiny-nand
TECH 0.64 6.4 0.56 3 0.16 0.08
CELL INV 8.192 0.03 0.008 2.0 INV(a)
CELL NAND2 12.288 0.045 0.0095 2.4 NAND(a,b)
CELL NOR2 16.384 0.055 0.0115 2.6 INV(NAND(INV(a),INV(b)))
)";

const char* kDesign = R"(
.model alu_slice
.inputs a0 a1 b0 b1 cin
.outputs s0 s1 cout
.names a0 b0 x0
10 1
01 1
.names a0 b0 g0
11 1
.names x0 cin s0
10 1
01 1
.names x0 cin p0
11 1
.names g0 p0 c1
1- 1
-1 1
.names a1 b1 x1
10 1
01 1
.names a1 b1 g1
11 1
.names x1 c1 s1
10 1
01 1
.names x1 c1 p1
11 1
.names g1 p1 cout
1- 1
-1 1
.end
)";

void report(const char* label, const Library& lib, const BaseNetwork& net) {
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 8.0, 0.5, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  const FlowRun run = context.run(options);

  std::printf("%-14s %3u cells, %8.2f um^2, critical %.3f ns, cells used:", label,
              run.metrics.num_cells, run.metrics.cell_area_um2,
              run.metrics.critical_path_ns);
  const auto hist = run.map.netlist.cell_histogram();
  for (std::uint32_t c = 0; c < hist.size(); ++c)
    if (hist[c] > 0)
      std::printf(" %ux%s", hist[c], lib.cell(CellId{c}).name().c_str());
  std::printf("\n");

  // Sanity: the mapped netlist computes the same function as the source.
  Rng rng(5);
  std::vector<std::uint64_t> words(net.pis().size());
  for (auto& w : words) w = rng.next();
  const bool ok = simulate64(net, words) == run.map.netlist.simulate64(words);
  std::printf("               functional check vs source: %s\n", ok ? "PASS" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  // A user-supplied design is untrusted input: consume the Result and report
  // the structured diagnostic instead of aborting (DESIGN.md §9).
  Result<BlifModel> parsed =
      argc > 1 ? parse_blif_file(argv[1]) : parse_blif_string(kDesign);
  if (!parsed.ok()) {
    std::fprintf(stderr, "custom_library: %s\n", parsed.status().to_string().c_str());
    return 1;
  }
  BlifModel model = std::move(*parsed);
  model.network.compact();
  std::printf("design '%s': %zu PIs, %zu POs, %u base gates\n\n", model.name.c_str(),
              model.network.pis().size(), model.network.pos().size(),
              model.network.num_base_gates());

  const Library corelib = lib::make_corelib();
  Result<Library> tiny_lib = parse_genlib_string(kTinyLib);
  if (!tiny_lib.ok()) {
    std::fprintf(stderr, "custom_library: %s\n", tiny_lib.status().to_string().c_str());
    return 1;
  }
  const Library tiny = std::move(*tiny_lib);
  std::printf("libraries: '%s' (%u cells) vs '%s' (%u cells)\n\n",
              corelib.name().c_str(), corelib.num_cells(), tiny.name().c_str(),
              tiny.num_cells());

  report("corelib:", corelib, model.network);
  report("tiny-nand:", tiny, model.network);

  std::printf("\nThe rich library wins on area and depth because the matcher can fold\n"
              "AOI/OAI/XOR shapes into single cells; the tiny library shows the same\n"
              "design mapped gate-by-gate.\n");
  return 0;
}
