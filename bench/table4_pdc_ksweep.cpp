/// Reproduces Table 4 of the paper: PDC congestion minimization vs
/// place&route results across the K sweep at the fixed 74-row (229786 um^2)
/// floorplan. Same three-region shape as Table 2.

#include "common.hpp"

using namespace cals;
using namespace cals::bench;

namespace {

struct PaperRow {
  double k;
  double cell_area;
  int cells;
  double util;
  int violations;
};

// Table 4 as published (PDC, 74 rows, 3 metal layers).
constexpr PaperRow kPaper[] = {
    {0.0, 128438, 7070, 55.89, 5447},    {0.0001, 129905, 6882, 56.53, 3592},
    {0.00025, 130023, 6912, 56.58, 2},   {0.0005, 130630, 7021, 56.85, 0},
    {0.00075, 131477, 7134, 57.22, 3673}, {0.001, 132514, 7268, 57.67, 0},
    {0.0025, 140161, 8094, 61.00, 9},    {0.005, 147714, 8780, 64.28, 0},
    {0.0075, 151769, 9201, 66.05, 0},    {0.01, 154141, 9453, 67.08, 86},
    {0.05, 163103, 10617, 70.98, 158},   {0.1, 167485, 11064, 72.89, 37},
    {0.5, 178975, 12274, 77.89, 6270},   {1.0, 180330, 12417, 78.48, 7770},
};

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs_session(argc, argv);  // --trace out.json / --metrics out.txt
  print_header("Table 4 — PDC congestion minimization vs place&route results");

  Table paper({"K (paper)", "Cell Area (um2)", "No. of Cells", "Area Util %",
               "Routing violations"});
  paper.set_caption("Published (Pandini et al., DATE 2002, Table 4):");
  for (const PaperRow& row : kPaper)
    paper.add_row({strprintf("%g", row.k), fmt_f(row.cell_area, 0), fmt_i(row.cells),
                   fmt_f(row.util, 2), fmt_i(row.violations)});
  print_table(paper);

  const Library lib = lib::make_corelib();
  SynthesisStats synth;
  BaseNetwork net = synthesize_base(workloads::pdc_like(scale()), &synth);
  std::printf("PDC-like: %u base gates (paper: 23,058)\n", synth.base_gates);
  const Floorplan fp =
      Floorplan::square_with_rows(scaled_rows(workloads::pdc_cliff_rows()), lib.tech());
  std::printf("floorplan: %u rows, die %.0f um^2 (paper: 74 rows, 229786 um^2 — our\n"
              "router's cliff for the PDC-like workload sits at a slightly smaller die,\n"
              "see EXPERIMENTS.md)\n\n",
              fp.num_rows(), fp.die_area());

  Timer total;
  const DesignContext context(net, &lib, fp);

  const Table ours = k_grid_table(context);
  std::printf("\n");
  print_table(ours);
  std::printf("total: %.1fs\n", total.seconds());
  return 0;
}
