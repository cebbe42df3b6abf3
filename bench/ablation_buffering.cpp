/// Ablation A4: high-fanout buffering (an extension beyond the paper).
/// The paper points at high-fanout gates as a congestion liability (Sec. 1);
/// buffer trees are the physical-synthesis remedy. This bench measures what
/// buffer insertion does to wirelength, congestion and timing on the mapped
/// SPLA-like block.

#include "common.hpp"
#include "map/buffering.hpp"

using namespace cals;
using namespace cals::bench;

namespace {

std::uint32_t max_fanout_of(const MappedNetlist& netlist) {
  std::vector<std::uint32_t> fanout(netlist.num_pis() + netlist.num_instances(), 0);
  auto slot = [&](Signal s) {
    return s.is_pi() ? s.index() : netlist.num_pis() + s.index();
  };
  for (std::uint32_t i = 0; i < netlist.num_instances(); ++i)
    for (Signal s : netlist.instance(i).fanins) ++fanout[slot(s)];
  for (const MappedPo& po : netlist.pos())
    if (!po.driver.is_const()) ++fanout[slot(po.driver)];
  std::uint32_t best = 0;
  for (std::uint32_t f : fanout) best = std::max(best, f);
  return best;
}

/// One table row, read off an implemented run.
std::vector<std::string> table_row(const std::string& label, const FlowRun& run) {
  const MappedNetlist& netlist = run.map.netlist;
  return {label,
          fmt_i(netlist.num_instances()),
          fmt_f(netlist.total_cell_area(), 0),
          fmt_i(max_fanout_of(netlist)),
          fmt_i(static_cast<long long>(run.route.total_overflow)),
          fmt_f(run.route.wirelength_um, 0),
          fmt_f(run.sta.critical.arrival_ns, 2)};
}

}  // namespace

int main() {
  print_header("Ablation A4 — high-fanout buffer trees (extension beyond the paper)");

  const Library lib = lib::make_corelib();
  const double s = scale() * 0.3;
  SynthesisStats synth;
  BaseNetwork net = synthesize_base(workloads::spla_like(s), &synth);
  const Floorplan fp = Floorplan::for_cell_area(synth.base_gates * 5.8, 0.55, lib.tech());
  std::printf("SPLA-like at %.2fx: %u base gates, %u rows\n\n", s, synth.base_gates,
              fp.num_rows());

  const DesignContext context(net, &lib, fp);
  const FlowOptions options = table_flow_options(0.1);
  const FlowRun run = context.run(options);

  Table table({"Netlist", "Cells", "Cell Area (um2)", "Max fanout", "Violations",
               "Routed WL (um)", "Critical (ns)"});
  table.add_row(table_row("unbuffered (paper flow)", run));
  for (std::uint32_t limit : {64u, 24u, 8u}) {
    BufferingOptions buffer_options;
    buffer_options.max_fanout = limit;
    MapResult buffered{buffer_high_fanout(run.map.netlist, buffer_options), run.map.stats};
    buffered.stats.num_cells = buffered.netlist.num_instances();
    buffered.stats.cell_area = buffered.netlist.total_cell_area();
    table.add_row(table_row(strprintf("buffered (max fanout %u)", limit),
                            context.implement(std::move(buffered), options).run));
  }
  print_table(table);
  std::printf("Buffer trees cap electrical fanout (critical path improves once the\n"
              "biggest nets split) at the cost of buffer area and extra wire; the\n"
              "congestion impact shows whether the split trees route better than one\n"
              "monolithic high-fanout net.\n");
  return 0;
}
