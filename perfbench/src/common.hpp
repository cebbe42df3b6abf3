#pragma once
/// \file common.hpp
/// Shared pieces of the repository benchmark: run configuration, the result
/// record every workload returns, process resource readings and latency
/// statistics.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for the run's cache, journal and dataset files (removed at
  /// exit) and the traced run's Chrome trace (kept).
  std::string work_dir;
  /// Traced mode only: replayed jobs per workload (0 = the workload default).
  /// The benchmark's own tests shrink it.
  std::uint32_t trace_jobs = 0;
  /// Traced mode only: worker threads of the K-loop replay (0 = the
  /// workload's own count). The determinism test compares 1 and 2.
  std::uint32_t threads = 0;
  /// Traced mode only: where the Chrome trace of the spans goes.
  std::string trace_path;
  /// Traced mode only: skip the obs on/off reruns and the thread-scaling
  /// diagnostic (the determinism test needs only the replay).
  bool replay_only = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the correctness verdict, the operation
/// counts and the metrics, plus free-form lines printed before the JSON.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  bool correct() const { return failed == 0 && attempted > 0; }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check: counted, and explained in the notes.
  void fail(const std::string& why);
};

/// Process user+sys CPU seconds so far (all threads).
double cpu_seconds();
/// Peak resident set size of the process, MB.
double peak_rss_mb();
/// Monotonic wall clock, seconds.
double now_seconds();
/// CPU time the hypervisor gave to other guests so far, summed over this
/// machine's vCPUs (/proc/stat "steal"), seconds; negative when unknown.
/// Wall-clock metrics lose what steal takes; process CPU time does not.
double host_steal_seconds();

/// Nearest-rank quantile (q in [0, 1]) of unsorted samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// The highest percentile that still has at least ten samples beyond it
/// (the choosing-metrics rule for a tail latency), with its sample count.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< e.g. 90 for p90
  std::size_t samples = 0;
};
Tail tail_latency(std::vector<double> samples);

/// splitmix64 — derives independent per-item seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
