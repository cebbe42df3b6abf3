/// Scenario: post-mapping netlist hygiene and handoff. Maps a wiring-heavy
/// block, caps its worst fanouts with buffer trees, compares timing before
/// and after, and exports everything downstream tools need: structural
/// Verilog, gate-level BLIF, a placement dump, and a PGM congestion image.
///
/// Usage: buffer_and_export [max_fanout] [out_prefix]

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "map/buffering.hpp"
#include "map/netlist_io.hpp"
#include "workloads/presets.hpp"

using namespace cals;

namespace {

void save(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  std::printf("  wrote %s (%zu bytes)\n", path.c_str(), text.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t max_fanout = argc > 1 ? std::atoi(argv[1]) : 16;
  const std::string prefix = argc > 2 ? argv[2] : "/tmp/cals_export";

  SynthesisStats synth;
  BaseNetwork net = synthesize_base(workloads::spla_like(0.15), &synth);
  const Library lib = lib::make_corelib();
  const Floorplan fp = Floorplan::for_cell_area(synth.base_gates * 5.8, 0.5, lib.tech());
  const DesignContext context(net, &lib, fp);

  FlowOptions options;
  options.K = 0.1;
  options.replace_mapped = false;
  const FlowRun run = context.run(options);

  // Buffer the mapped netlist, then place, route and time it afresh on the
  // same floorplan. The metrics read cell count and area from the stats.
  BufferingOptions buffer_options;
  buffer_options.max_fanout = max_fanout;
  BufferingStats stats;
  MapResult mapped{buffer_high_fanout(run.map.netlist, buffer_options, &stats),
                   run.map.stats};
  mapped.stats.num_cells = mapped.netlist.num_instances();
  mapped.stats.cell_area = mapped.netlist.total_cell_area();
  const FlowRun after = context.implement(std::move(mapped), options).run;
  const MappedNetlist& buffered = after.map.netlist;

  std::printf("max fanout %u -> %u with %u buffers\n", stats.max_fanout_before,
              stats.max_fanout_after, stats.buffers_inserted);
  const auto report = [](const char* label, const FlowRun& r) {
    std::printf("%s %5llu violations, wl %8.0f um, critical %6.3f ns\n", label,
                static_cast<unsigned long long>(r.route.total_overflow),
                r.route.wirelength_um, r.sta.critical.arrival_ns);
  };
  report("before:", run);
  report("after: ", after);

  std::printf("exports:\n");
  save(prefix + ".v", write_verilog_string(buffered, "block"));
  save(prefix + ".blif", write_mapped_blif_string(buffered, "block"));
  save(prefix + ".place", write_placement_string(buffered));
  save(prefix + ".pgm", after.congestion.to_pgm());

  // Round-trip sanity: the exported Verilog reads back equivalent.
  const MappedNetlist again =
      read_verilog_string(write_verilog_string(buffered, "block"), lib);
  std::vector<std::uint64_t> words(buffered.num_pis());
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
  std::printf("verilog round-trip equivalent: %s\n",
              again.simulate64(words) == buffered.simulate64(words) ? "PASS" : "FAIL");
  return 0;
}
