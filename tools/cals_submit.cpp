/// cals_submit — drops one job into a cals_serve spool directory (and
/// optionally waits for its result). The job is self-contained: the design
/// (and library) text is embedded in the job file, so the server needs no
/// access to the submitter's paths.
///
/// Usage:
///   cals_submit --spool <dir> [source] [options]
///
/// Source (exactly one):
///   --design <file.pla|file.blif>   submit this design
///   --preset <spla|pdc|too_large>   generate the size-matched synthetic
///                                   workload (see workloads/presets.hpp)
///
/// Options:
///   --scale <f>        preset shrink factor (default: CALS_SCALE env or 1.0)
///   --library <file>   genlib library text to embed (default: corelib)
///   --name <s>         job label (default: source name)
///   --k <f>            congestion factor K (default 0)
///   --auto-k           run the Fig. 3 K schedule instead of a fixed K
///   --rows <n>         floorplan rows (default: sized for --util)
///   --util <f>         target utilization when sizing the die (default 0.6)
///   --priority <n>     scheduling priority, higher first (default 0)
///   --sis              divisor extraction before mapping (PLA only)
///   --partition <p>    dagon | cones | pdp (default pdp)
///   --objective <o>    area | delay (default area)
///   --max-route-iters <n> / --time-budget <sec>  flow guardrails
///   --repair-passes <n>    post-route congestion repair passes (0 = off)
///   --repair-window <n>    repair search window radius, gcells (default 8)
///   --repair-max-cells <n> cells moved per repair pass (default 64)
///   --max-attempts <n> server-side retry budget for this job: up to n
///                      attempts on retryable (internal) failures (default 0
///                      = server default)
///   --deadline <sec>   per-attempt execution deadline enforced by the
///                      server; past it the attempt is cancelled and fails
///                      with deadline_exceeded (default 0 = server default)
///   --wait             poll for the result record and report it, plus a
///                      one-line flight summary (queue wait, phase times,
///                      cache/dataset provenance) when the server published
///                      a flight record for the job. The poll backs off
///                      exponentially (25 ms doubling-ish to 1 s) so a
///                      hundred concurrent waiters do not hammer the spool.
///   --timeout <sec>    give up waiting after this long (default 300)
///   --quiet            print only the job stem (and errors)
///
/// Exit codes: 0 submitted (and, with --wait, job done), 1 job failed /
/// bad input, 2 usage error, 3 wait timed out (the job may still finish —
/// a timeout abandons the wait, not the submission).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "svc/flight.hpp"
#include "svc/job.hpp"
#include "svc/preset_specs.hpp"
#include "svc/spool.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"
#include "workloads/presets.hpp"

using namespace cals;

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why = {}) {
  if (!why.empty()) std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
  std::fprintf(stderr,
               "usage: %s --spool <dir> (--design <file> | --preset <name>) "
               "[options]\n",
               argv0);
  std::fprintf(stderr, "run with the source header's option list for details\n");
  std::exit(2);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string slurp(const char* argv0, const std::string& path) {
  Result<std::string> body = read_file_string(path);
  if (!body.ok()) usage(argv0, "cannot read '" + path + "'");
  return std::move(body.value());
}

/// The --wait one-liner from the server's flight record: where the time
/// went and where the result came from. Best-effort — the server may not
/// have published one (old server, telemetry fault), and the file can lag
/// the result record by one publish cycle, so we poll briefly.
void print_flight_summary(const svc::SpoolPaths& spool, const std::string& stem) {
  std::filesystem::path path;
  for (int attempt = 0; attempt < 20 && path.empty(); ++attempt) {
    path = svc::spool_find_flight(spool, stem);
    if (path.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (path.empty()) return;
  Result<std::string> body = read_file_string(path.string());
  if (!body.ok()) return;
  Result<svc::FlightRecord> flight = svc::flight_record_from_json(body.value());
  if (!flight.ok()) return;
  const svc::FlightRecord& f = flight.value();
  const char* source = f.cache_hit   ? "cache hit"
                       : f.coalesced ? "coalesced"
                       : f.dataset   ? "dataset"
                                     : "cold";
  std::string provenance = source;
  if (f.dataset && !f.cache_hit)
    provenance += strprintf(" (key %s v%llu)", f.dataset_key.c_str(),
                            static_cast<unsigned long long>(f.dataset_version));
  std::printf(
      "flight: queue %.0fms, exec %.0fms (map %.0f / place %.0f / route %.0f / "
      "sta %.0f ms), %u route iters, %s\n",
      f.queue_seconds * 1e3, f.exec_seconds * 1e3, f.map_seconds * 1e3,
      f.place_seconds * 1e3, f.route_seconds * 1e3, f.sta_seconds * 1e3,
      f.route_iterations(), provenance.c_str());
  if (f.rcm_passes > 0)
    std::printf("repair: %u pass(es), %u cell(s) moved, overflow removed %llu\n",
                f.rcm_passes, f.rcm_cells_moved,
                static_cast<unsigned long long>(f.rcm_overflow_removed));
}

int run(int argc, char** argv) {
  std::string spool_dir, design_file, preset, library_file, name;
  double scale = workloads::scale_from_env();
  bool wait = false, quiet = false;
  double timeout_s = 300.0;
  svc::JobSpec spec;
  spec.options.on_error = ErrorPolicy::kBestEffort;

  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc)
      usage(argv[0], std::string("option '") + argv[i] + "' needs a value");
    return argv[++i];
  };
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
    if (std::strcmp(a, "--spool") == 0) spool_dir = need(i);
    else if (std::strcmp(a, "--design") == 0) design_file = need(i);
    else if (std::strcmp(a, "--preset") == 0) preset = need(i);
    else if (std::strcmp(a, "--scale") == 0) scale = need_double(i, 0.01, 4.0);
    else if (std::strcmp(a, "--library") == 0) library_file = need(i);
    else if (std::strcmp(a, "--name") == 0) name = need(i);
    else if (std::strcmp(a, "--k") == 0) spec.options.K = need_double(i, 0.0, 1e3);
    else if (std::strcmp(a, "--auto-k") == 0) spec.auto_k = true;
    else if (std::strcmp(a, "--rows") == 0) spec.rows = need_u32(i);
    else if (std::strcmp(a, "--util") == 0) spec.util = need_double(i, 1e-3, 1.0);
    else if (std::strcmp(a, "--priority") == 0) {
      const char* text = need(i);
      double value = 0.0;
      if (!parse_double(text, value) || value < INT32_MIN || value > INT32_MAX ||
          value != static_cast<std::int32_t>(value))
        usage(argv[0], strprintf("option '--priority': '%s' is not an integer", text));
      spec.priority = static_cast<std::int32_t>(value);
    } else if (std::strcmp(a, "--sis") == 0) spec.sis = true;
    else if (std::strcmp(a, "--partition") == 0) {
      const std::string p = need(i);
      if (p == "dagon") spec.options.partition = PartitionStrategy::kDagon;
      else if (p == "cones") spec.options.partition = PartitionStrategy::kCones;
      else if (p == "pdp") spec.options.partition = PartitionStrategy::kPlacementDriven;
      else usage(argv[0], "unknown partition '" + p + "' (dagon | cones | pdp)");
    } else if (std::strcmp(a, "--objective") == 0) {
      const std::string o = need(i);
      if (o == "area") spec.options.objective = MapObjective::kArea;
      else if (o == "delay") spec.options.objective = MapObjective::kDelay;
      else usage(argv[0], "unknown objective '" + o + "' (area | delay)");
    } else if (std::strcmp(a, "--max-route-iters") == 0)
      spec.options.max_route_iters = need_u32(i);
    else if (std::strcmp(a, "--repair-passes") == 0)
      spec.options.repair_passes = need_u32(i);
    else if (std::strcmp(a, "--repair-window") == 0)
      spec.options.repair_window = need_u32(i);
    else if (std::strcmp(a, "--repair-max-cells") == 0)
      spec.options.repair_max_cells = need_u32(i);
    else if (std::strcmp(a, "--time-budget") == 0)
      spec.options.phase_time_budget_s = need_double(i, 1e-6, 1e6);
    else if (std::strcmp(a, "--max-attempts") == 0)
      spec.max_attempts = need_u32(i);
    else if (std::strcmp(a, "--deadline") == 0)
      spec.deadline_s = need_double(i, 0.0, 1e6);
    else if (std::strcmp(a, "--wait") == 0) wait = true;
    else if (std::strcmp(a, "--timeout") == 0) timeout_s = need_double(i, 0.1, 1e6);
    else if (std::strcmp(a, "--quiet") == 0) quiet = true;
    else usage(argv[0], std::string("unknown argument '") + a + "'");
  }
  if (spool_dir.empty()) usage(argv[0], "--spool is required");
  if (design_file.empty() == preset.empty())
    usage(argv[0], "give exactly one of --design or --preset");

  // ---- build the spec -----------------------------------------------------
  if (!preset.empty()) {
    // Shared generation (svc::preset_job_spec) so cals_pack produces blobs
    // whose dataset key matches what this submission hashes to.
    Result<svc::JobSpec> generated = svc::preset_job_spec(preset, scale);
    if (!generated.ok()) usage(argv[0], generated.status().message());
    spec.format = generated->format;
    spec.design_text = std::move(generated->design_text);
    spec.name = name.empty() ? generated->name : name;
  } else {
    spec.format = ends_with(design_file, ".blif") ? svc::DesignFormat::kBlif
                                                  : svc::DesignFormat::kPla;
    spec.design_text = slurp(argv[0], design_file);
    spec.name = name.empty() ? design_file : name;
  }
  if (!library_file.empty()) spec.genlib_text = slurp(argv[0], library_file);

  // ---- submit -------------------------------------------------------------
  Result<svc::SpoolPaths> spool = svc::open_spool(spool_dir);
  if (!spool.ok()) {
    std::fprintf(stderr, "cals_submit: %s\n", spool.status().to_string().c_str());
    return 1;
  }
  Result<std::string> stem = svc::spool_submit(*spool, spec);
  if (!stem.ok()) {
    std::fprintf(stderr, "cals_submit: %s\n", stem.status().to_string().c_str());
    return 1;
  }
  if (quiet) std::printf("%s\n", stem->c_str());
  else {
    // One streaming hash pass yields both keys (see job_keys()); no second
    // scan of the design bytes just to print them.
    const svc::JobKeys keys = svc::job_keys(spec);
    std::printf("submitted job '%s' as %s (cache key %s, dataset key %s)\n",
                spec.name.c_str(), stem->c_str(), keys.cache_key.c_str(),
                keys.dataset_key.c_str());
  }
  if (!wait) return 0;

  // ---- wait: poll the spool's result directories --------------------------
  // Exponential backoff: most jobs publish within a few polls, but a long
  // queue behind a busy server should cost one stat() a second, not twenty.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  double poll_ms = 25.0;
  for (;;) {
    const std::filesystem::path result = svc::spool_find_result(*spool, *stem);
    if (!result.empty()) {
      Result<std::string> body = read_file_string(result.string());
      const bool done = result.parent_path() == spool->done;
      if (!quiet) {
        std::printf("%s: %s\n%s", done ? "done" : "FAILED",
                    result.string().c_str(),
                    body.ok() ? body.value().c_str() : "");
        print_flight_summary(*spool, *stem);
      }
      return done ? 0 : 1;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      std::fprintf(stderr, "cals_submit: timed out after %.1fs waiting for %s\n",
                   timeout_s, stem->c_str());
      return 3;
    }
    const double budget_ms =
        std::chrono::duration<double, std::milli>(deadline - now).count();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(poll_ms, budget_ms)));
    poll_ms = std::min(poll_ms * 1.6, 1000.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cals_submit: internal error: %s\n", e.what());
    return 1;
  }
}
