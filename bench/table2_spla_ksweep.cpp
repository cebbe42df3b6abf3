/// Reproduces Table 2 of the paper: SPLA congestion minimization vs
/// place&route results across the K sweep, at the fixed 71-row (207062 um^2)
/// floorplan. Expected shape: unroutable at K=0, a routable band at moderate
/// K with a small cell-area penalty, unroutable again when the wire term
/// dominates.

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

// Table 2 as published (SPLA, 71 rows, 3 metal layers).
constexpr PaperRow kPaper[] = {
    {0.0, 126521, 7184, 61.10, 4794},   {0.0001, 128205, 6998, 61.92, 4737},
    {0.00025, 128184, 7014, 61.91, 5307}, {0.0005, 128356, 7061, 61.99, 0},
    {0.00075, 128766, 7135, 62.19, 0},  {0.001, 129257, 7203, 62.42, 0},
    {0.0025, 134717, 7727, 65.06, 0},   {0.005, 143081, 8346, 69.10, 4805},
    {0.0075, 147435, 8774, 71.20, 4958}, {0.01, 149577, 9017, 72.24, 4869},
    {0.05, 158097, 10047, 76.35, 5867}, {0.1, 162861, 10547, 78.65, 7865},
    {0.5, 175346, 11875, 84.68, 6777},  {1.0, 176984, 12060, 85.47, 8893},
};

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs_session(argc, argv);  // --trace out.json / --metrics out.txt
  print_header("Table 2 — SPLA congestion minimization vs place&route results");

  Table paper({"K (paper)", "Cell Area (um2)", "No. of Cells", "Area Util %",
               "Routing violations"});
  paper.set_caption("Published (Pandini et al., DATE 2002, Table 2):");
  for (const PaperRow& row : kPaper)
    paper.add_row({strprintf("%g", row.k), fmt_f(row.cell_area, 0), fmt_i(row.cells),
                   fmt_f(row.util, 2), fmt_i(row.violations)});
  print_table(paper);

  const Library lib = lib::make_corelib();
  SynthesisStats synth;
  BaseNetwork net = synthesize_base(workloads::spla_like(scale()), &synth);
  std::printf("SPLA-like: %u base gates (paper: 22,834)\n", synth.base_gates);
  const Floorplan fp = Floorplan::square_with_rows(scaled_rows(71), lib.tech());
  std::printf("floorplan: %u rows, die %.0f um^2 (paper: 71 rows, 207062 um^2)\n\n",
              fp.num_rows(), fp.die_area());

  Timer total;
  const DesignContext context(net, &lib, fp);

  const Table ours = k_grid_table(context);
  std::printf("\n");
  print_table(ours);
  std::printf("total: %.1fs\n", total.seconds());
  return 0;
}
