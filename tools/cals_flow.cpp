/// cals_flow — command-line driver for the whole congestion-aware synthesis
/// flow: read a design (espresso PLA or BLIF), synthesize, map with the
/// chosen K (or search for one, Fig. 3 style), place, route, time, and
/// export the results. The run is described as a batch job (svc::JobSpec)
/// and built by the job path's front end, so a served job with the same
/// spec reports the same numbers.
///
/// Usage:
///   cals_flow [options] <design.pla | design.blif>
///
/// Options:
///   --k <float>            congestion factor K (default: Fig. 3 auto-search)
///   --rows <n>             floorplan rows (default: sized for --util)
///   --util <frac>          target utilization when sizing the die (default 0.6)
///   --library <file>       genlib-format library (default: built-in corelib)
///   --partition <name>     dagon | cones | pdp (default pdp)
///   --objective <name>     area | delay (default area)
///   --sis                  apply divisor extraction before mapping
///   --buffer <maxfanout>   insert buffer trees after mapping
///   --refine <passes>      detailed-placement refinement passes
///   --verilog <file>       write the mapped netlist as structural Verilog
///   --blif-out <file>      write the mapped netlist as gate-level BLIF
///   --placement <file>     write the cell placement dump
///   --report               print the timing report and congestion map
///   --trace <file>         record a Chrome trace_event JSON of the run
///                          (load in chrome://tracing or Perfetto)
///   --metrics <file>       write the obs metrics registry dump
///   --congestion-csv <file> write the final congestion map as a CSV heatmap;
///                          with repair on, writes <file base>.pre.csv and
///                          <file base>.post.csv (before/after repair)
///   --repair-passes <n>    post-route congestion repair passes (0 = off)
///   --repair-window <n>    repair search window radius, gcells (default 8)
///   --repair-max-cells <n> cells moved per repair pass (default 64)
///   --threads <n>          K points the auto search evaluates at once
///                          (0 = one per hardware thread; a fixed --k
///                          evaluation always runs on one thread)
///   --max-route-iters <n>  cap the router's rip-up-and-reroute iterations
///   --time-budget <sec>    per-phase wall-clock budget (degrade, don't hang)
///   --quiet                suppress the per-stage narration
///
/// Exit codes: 0 success, 1 bad input / failed flow, 2 usage error. Malformed
/// inputs and flow failures produce a one-line diagnostic, never an abort.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "flow/flow.hpp"
#include "map/buffering.hpp"
#include "map/netlist_io.hpp"
#include "svc/service.hpp"
#include "timing/sta.hpp"
#include "util/io.hpp"
#include "util/obs.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

using namespace cals;

namespace {

struct Args {
  std::string design;
  double k = -1.0;  // < 0: auto
  std::uint32_t rows = 0;
  double util = 0.6;
  std::string library_file;
  PartitionStrategy partition = PartitionStrategy::kPlacementDriven;
  MapObjective objective = MapObjective::kArea;
  bool sis = false;
  std::uint32_t buffer_fanout = 0;
  std::uint32_t refine = 0;
  std::string verilog_out;
  std::string blif_out;
  std::string placement_out;
  std::string trace_out;
  std::string metrics_out;
  std::string congestion_csv_out;
  std::uint32_t repair_passes = 0;
  std::uint32_t repair_window = 8;
  std::uint32_t repair_max_cells = 64;
  std::uint32_t threads = 0;
  std::uint32_t max_route_iters = 0;
  double time_budget_s = 0.0;
  bool report = false;
  bool quiet = false;
};

/// One-line diagnostic (when given) + usage synopsis, exit 2. Every argv
/// problem funnels here — a bad command line is never an abort or a crash.
[[noreturn]] void usage(const char* argv0, const std::string& why = {}) {
  if (!why.empty()) std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
  std::fprintf(stderr, "usage: %s [options] <design.pla|design.blif>\n", argv0);
  std::fprintf(stderr, "run with the source header's option list for details\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc)
      usage(argv[0], std::string("option '") + argv[i] + "' needs a value");
    return argv[++i];
  };
  // Strict numeric parsing: "--k 0.1x", "--rows -3" or "--threads 1e9" are
  // usage errors with the offending token named, not silent atoi truncation.
  auto need_u32 = [&](int& i) -> std::uint32_t {
    const char* flag = argv[i];
    const char* text = need(i);
    std::uint32_t value = 0;
    if (!parse_u32(text, value))
      usage(argv[0], std::string("option '") + flag + "': '" + text +
                         "' is not an unsigned integer");
    return value;
  };
  auto need_double = [&](int& i, double lo, double hi) -> double {
    const char* flag = argv[i];
    const char* text = need(i);
    double value = 0.0;
    if (!parse_double(text, value) || value < lo || value > hi)
      usage(argv[0], strprintf("option '%s': '%s' is not a number in [%g, %g]",
                               flag, text, lo, hi));
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--k") == 0) args.k = need_double(i, 0.0, 1e3);
    else if (std::strcmp(a, "--rows") == 0) args.rows = need_u32(i);
    else if (std::strcmp(a, "--util") == 0) args.util = need_double(i, 1e-3, 1.0);
    else if (std::strcmp(a, "--library") == 0) args.library_file = need(i);
    else if (std::strcmp(a, "--partition") == 0) {
      const std::string p = need(i);
      if (p == "dagon") args.partition = PartitionStrategy::kDagon;
      else if (p == "cones") args.partition = PartitionStrategy::kCones;
      else if (p == "pdp") args.partition = PartitionStrategy::kPlacementDriven;
      else usage(argv[0], "unknown partition '" + p + "' (dagon | cones | pdp)");
    } else if (std::strcmp(a, "--objective") == 0) {
      const std::string o = need(i);
      if (o == "area") args.objective = MapObjective::kArea;
      else if (o == "delay") args.objective = MapObjective::kDelay;
      else usage(argv[0], "unknown objective '" + o + "' (area | delay)");
    } else if (std::strcmp(a, "--sis") == 0) args.sis = true;
    else if (std::strcmp(a, "--buffer") == 0) args.buffer_fanout = need_u32(i);
    else if (std::strcmp(a, "--refine") == 0) args.refine = need_u32(i);
    else if (std::strcmp(a, "--threads") == 0) args.threads = need_u32(i);
    else if (std::strcmp(a, "--max-route-iters") == 0) args.max_route_iters = need_u32(i);
    else if (std::strcmp(a, "--time-budget") == 0)
      args.time_budget_s = need_double(i, 1e-6, 1e6);
    else if (std::strcmp(a, "--verilog") == 0) args.verilog_out = need(i);
    else if (std::strcmp(a, "--blif-out") == 0) args.blif_out = need(i);
    else if (std::strcmp(a, "--placement") == 0) args.placement_out = need(i);
    else if (std::strcmp(a, "--trace") == 0) args.trace_out = need(i);
    else if (std::strcmp(a, "--metrics") == 0) args.metrics_out = need(i);
    else if (std::strcmp(a, "--congestion-csv") == 0) args.congestion_csv_out = need(i);
    else if (std::strcmp(a, "--repair-passes") == 0) args.repair_passes = need_u32(i);
    else if (std::strcmp(a, "--repair-window") == 0) args.repair_window = need_u32(i);
    else if (std::strcmp(a, "--repair-max-cells") == 0) args.repair_max_cells = need_u32(i);
    else if (std::strcmp(a, "--report") == 0) args.report = true;
    else if (std::strcmp(a, "--quiet") == 0) args.quiet = true;
    else if (a[0] == '-') usage(argv[0], std::string("unknown option '") + a + "'");
    else if (args.design.empty()) args.design = a;
    else usage(argv[0], std::string("unexpected extra argument '") + a + "'");
  }
  if (args.design.empty()) usage(argv[0], "no design file given");
  return args;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void save(const std::string& path, const std::string& text, bool quiet,
          const char* what) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << text;
  if (!quiet) std::printf("wrote %s to %s\n", what, path.c_str());
}

/// A whole input file as text. A missing file is the parse error the file
/// readers report ("<what>: cannot open file", naming the path).
Result<std::string> read_text(const std::string& path, const char* what) {
  Result<std::string> text = read_file_string(path);
  if (!text.ok())
    return Status::parse_error(std::string(what) + ": cannot open file").with_file(path);
  return text;
}

/// The run as a job spec, exactly as a served job would describe it.
Result<svc::JobSpec> job_spec(const Args& args) {
  svc::JobSpec spec;
  spec.name = "cals_flow";
  spec.format = ends_with(args.design, ".blif") ? svc::DesignFormat::kBlif
                                                : svc::DesignFormat::kPla;
  Result<std::string> design =
      read_text(args.design, spec.format == svc::DesignFormat::kBlif ? "blif" : "pla");
  if (!design.ok()) return design.status();
  spec.design_text = std::move(*design);
  if (!args.library_file.empty()) {
    Result<std::string> genlib = read_text(args.library_file, "genlib");
    if (!genlib.ok()) return genlib.status();
    // A job's empty genlib means the built-in corelib; an empty file is not.
    if (genlib->empty())
      return Status::parse_error("genlib: empty library file").with_file(args.library_file);
    spec.genlib_text = std::move(*genlib);
  }
  spec.sis = args.sis;
  spec.auto_k = args.k < 0.0;
  spec.rows = args.rows;
  spec.util = args.util;
  FlowOptions& options = spec.options;
  options.K = spec.auto_k ? 0.0 : args.k;
  options.partition = args.partition;
  options.objective = args.objective;
  options.replace_mapped = false;
  options.refine_passes = args.refine;
  options.num_threads = args.threads;
  options.max_route_iters = args.max_route_iters;
  options.repair_passes = args.repair_passes;
  options.repair_window = args.repair_window;
  options.repair_max_cells = args.repair_max_cells;
  options.phase_time_budget_s = args.time_budget_s;
  options.on_error = ErrorPolicy::kBestEffort;
  return spec;
}

/// The flow proper, separated from main() so the top-level catch can turn
/// any escaped exception into a one-line diagnostic + exit 1.
int run_flow(const Args& args) {
  if (!args.trace_out.empty() || !args.metrics_out.empty()) obs::set_enabled(true);
  auto say = [&](const char* fmt, auto... values) {
    if (!args.quiet) std::printf(fmt, values...);
  };
  auto fail = [&](const Status& status) -> int {
    std::fprintf(stderr, "cals_flow: %s\n", status.to_string().c_str());
    return 1;
  };

  // ---- front end: the job path's parse, synthesis, library and floorplan ----
  const Result<svc::JobSpec> spec = job_spec(args);
  if (!spec.ok()) return fail(spec.status());
  if (args.sis && spec->format == svc::DesignFormat::kBlif)
    std::fprintf(stderr, "note: --sis only applies to PLA inputs; ignored\n");
  // Keeps the library every netlist below points into.
  Result<svc::JobDesign> design = svc::build_job_design(*spec);
  if (!design.ok()) {
    // The job path parses text; name the file at fault as the file readers
    // do (the genlib parser marks its own failures "<genlib>").
    Status status = design.status();
    status.with_file(status.file() == "<genlib>" ? args.library_file : args.design);
    return fail(status);
  }
  const Library& lib = design->library;
  const Floorplan& fp = design->floorplan;
  say("design: %zu PIs, %zu POs, %u base gates\n", design->net.pis().size(),
      design->net.pos().size(), design->net.num_base_gates());
  say("floorplan: %u rows, %.0f x %.0f um (library '%s', %u cells)\n", fp.num_rows(),
      fp.die().width(), fp.die().height(), lib.name().c_str(), lib.num_cells());

  const DesignContext context(std::move(design->net), &lib, fp);

  // ---- mapping: fixed K or Fig. 3 search --------------------------------------
  FlowRun run;
  if (!spec->auto_k) {
    FlowResult checked = context.run_checked(spec->options);
    if (!checked.ok()) return fail(checked.status);
    run = std::move(checked.run);
  } else {
    FlowIterationResult search = congestion_aware_flow(context, kAutoKSchedule, spec->options);
    // kInfeasible just means no K converged — report the best run anyway, as
    // the paper's designer would (then add routing resources). Anything else
    // (budget, injected fault, captured exception) is a failed run.
    if (!search.status.ok() && search.status.code() != ErrorCode::kInfeasible)
      return fail(search.status);
    run = std::move(search.runs[search.chosen]);
    say("auto K search: %zu iteration(s), chose K = %g%s\n", search.runs.size(),
        run.metrics.k_factor, search.converged ? "" : " (did NOT converge)");
  }

  // ---- optional buffering: the buffered netlist is implemented afresh -------
  if (args.buffer_fanout >= 2) {
    BufferingStats stats;
    BufferingOptions buffer_options;
    buffer_options.max_fanout = args.buffer_fanout;
    MapResult buffered{buffer_high_fanout(run.map.netlist, buffer_options, &stats),
                       run.map.stats};
    buffered.stats.num_cells = buffered.netlist.num_instances();
    buffered.stats.cell_area = buffered.netlist.total_cell_area();
    say("buffering: %u buffers inserted, max fanout %u -> %u\n",
        stats.buffers_inserted, stats.max_fanout_before, stats.max_fanout_after);
    FlowOptions options = spec->options;
    options.K = run.metrics.k_factor;
    FlowResult checked = context.implement(std::move(buffered), options);
    if (!checked.ok()) return fail(checked.status);
    run = std::move(checked.run);
  }

  // ---- results ------------------------------------------------------------------
  const MappedNetlist& netlist = run.map.netlist;
  std::printf("cells: %u  cell area: %.1f um^2  utilization: %.1f%%\n",
              netlist.num_instances(), netlist.total_cell_area(),
              100.0 * netlist.total_cell_area() / fp.core_area());
  std::printf("routing: %llu violations, wirelength %.0f um\n",
              static_cast<unsigned long long>(run.route.total_overflow),
              run.route.wirelength_um);
  if (run.repair.passes_run > 0)
    std::printf("repair: %u pass(es), %u cell(s) moved, overflow %llu -> %llu\n",
                run.repair.passes_run, run.repair.cells_moved,
                static_cast<unsigned long long>(run.repair.overflow_before),
                static_cast<unsigned long long>(run.repair.overflow_after));
  std::printf("timing: critical path %s -> %s = %.3f ns\n",
              run.sta.critical.start.c_str(), run.sta.critical.end.c_str(),
              run.sta.critical.arrival_ns);

  if (args.report) {
    std::printf("\n%s", timing_report(netlist, run.sta).c_str());
    std::printf("\ncongestion map ('X' = over capacity):\n%s",
                run.congestion.ascii_art().c_str());
  }
  if (!args.congestion_csv_out.empty()) {
    if (args.repair_passes == 0) {
      save(args.congestion_csv_out, run.congestion.to_csv(), args.quiet, "congestion CSV");
    } else {
      std::string base = args.congestion_csv_out;
      if (ends_with(base, ".csv")) base.resize(base.size() - 4);
      save(base + ".pre.csv", run.congestion_pre.to_csv(), args.quiet,
           "pre-repair congestion CSV");
      save(base + ".post.csv", run.congestion.to_csv(), args.quiet,
           "post-repair congestion CSV");
    }
  }

  if (!args.verilog_out.empty())
    save(args.verilog_out, write_verilog_string(netlist, "top"), args.quiet, "Verilog");
  if (!args.blif_out.empty())
    save(args.blif_out, write_mapped_blif_string(netlist, "top"), args.quiet, "BLIF");
  if (!args.placement_out.empty())
    save(args.placement_out, write_placement_string(netlist), args.quiet, "placement");
  if (!args.trace_out.empty()) {
    if (obs::write_chrome_trace(args.trace_out))
      say("wrote Chrome trace to %s (load in chrome://tracing)\n", args.trace_out.c_str());
    else
      std::fprintf(stderr, "cannot write trace to %s\n", args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    if (obs::write_metrics(args.metrics_out))
      say("wrote metrics to %s\n", args.metrics_out.c_str());
    else
      std::fprintf(stderr, "cannot write metrics to %s\n", args.metrics_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run_flow(args);
  } catch (const std::exception& e) {
    // Invariant violations still abort in check_fail (on purpose); anything
    // thrown — bad_alloc, injected faults, pool-task failures — degrades to
    // a diagnostic and a nonzero exit.
    std::fprintf(stderr, "cals_flow: internal error: %s\n", e.what());
    return 1;
  }
}
