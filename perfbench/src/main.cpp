/// perfbench — the repository benchmark (see perfbench/NOTES.md).
///
///   perfbench --workload <kloop_cliff|serve_cold|serve_hot> --seed <n>
///             --seconds <s> --trace <0|1>
///
/// --trace 0 measures the workload and prints every end-to-end metric;
/// --trace 1 replays the same inputs layer by layer and prints every
/// per-layer metric. Either way the last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}, and a failed check makes
/// the exit code non-zero.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "util/strings.hpp"

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <kloop_cliff|serve_cold|serve_hot> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  std::exit(2);
}

perfbench::Config parse(int argc, char** argv) {
  perfbench::Config config;
  // Run files stay inside the checkout the benchmark runs from.
  const std::string work_root = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("option '" + flag + "' needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed needs an unsigned integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0.0) || config.seconds > 3600.0)
        usage("--seconds needs a number in (0, 3600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace needs 0 or 1");
      config.trace = value == "1";
    } else {
      usage("unknown option '" + flag + "'");
    }
  }
  if (config.workload != "kloop_cliff" && config.workload != "serve_cold" &&
      config.workload != "serve_hot")
    usage("--workload must be kloop_cliff, serve_cold or serve_hot");
  config.work_dir = cals::strprintf("%s/%s-%llu-%d", work_root.c_str(), config.workload.c_str(),
                                    static_cast<unsigned long long>(config.seed),
                                    static_cast<int>(getpid()));
  if (config.trace)
    config.trace_path = cals::strprintf("%s/%s-seed%llu.trace.json", work_root.c_str(),
                                        config.workload.c_str(),
                                        static_cast<unsigned long long>(config.seed));
  return config;
}

perfbench::RunResult run(const perfbench::Config& config) {
  const bool hot = config.workload == "serve_hot";
  if (config.workload == "kloop_cliff")
    return config.trace ? perfbench::trace_kloop(config) : perfbench::run_kloop(config);
  return config.trace ? perfbench::trace_serve(config, hot) : perfbench::run_serve(config, hot);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Config config = parse(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) usage("cannot create " + config.work_dir);

  perfbench::RunResult result;
  const double steal0 = perfbench::host_steal_seconds();
  const double wall0 = perfbench::now_seconds();
  try {
    result = run(config);
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  const double steal1 = perfbench::host_steal_seconds();
  if (steal0 >= 0.0 && steal1 >= 0.0)
    result.notes.push_back(cals::strprintf(
        "host CPU steal during the run: %.2f vCPU-s in %.1f s of wall time", steal1 - steal0,
        perfbench::now_seconds() - wall0));
  std::filesystem::remove_all(config.work_dir, ec);

  for (const perfbench::Metric& m : result.metrics)
    if (!std::isfinite(m.value)) result.fail(m.name + " is not a finite number");
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const perfbench::Metric& m : result.metrics)
    std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (!config.trace_path.empty()) std::printf("# spans: %s\n", config.trace_path.c_str());

  std::string json = cals::strprintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      result.correct() ? "true" : "false", static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json += cals::strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                            m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                            m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}
