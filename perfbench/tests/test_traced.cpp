// The traced run's work counters are the benchmark's exact, machine-free
// signal: the counters report.cpp marks deterministic must repeat bit for
// bit between traced runs of one seed, and — on kloop_cliff — between one
// and two worker threads. Small job counts keep this to seconds.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::map<std::string, double> traced(const std::string& workload, std::uint32_t threads,
                                     std::uint32_t jobs) {
  static int run = 0;
  Config config;
  config.workload = workload;
  config.seed = 7;
  config.trace = true;
  config.trace_jobs = jobs;
  config.threads = threads;
  config.replay_only = true;
  config.work_dir = "perfbench-test-work/" + workload + "-" + std::to_string(run++);
  std::filesystem::create_directories(config.work_dir);
  const RunResult result = workload == "kloop_cliff"
                               ? trace_kloop(config)
                               : trace_serve(config, workload == "serve_hot");
  std::filesystem::remove_all(config.work_dir);

  std::string notes;
  for (const std::string& note : result.notes) notes += note + "\n";
  EXPECT_TRUE(result.correct()) << notes;
  std::map<std::string, double> values;
  for (const Metric& metric : result.metrics) values[metric.name] = metric.value;
  return values;
}

void expect_same_counters(const std::map<std::string, double>& a,
                          const std::map<std::string, double>& b) {
  for (const std::string& name : deterministic_counters()) {
    ASSERT_TRUE(a.count(name) == 1 && b.count(name) == 1) << name << " not reported";
    EXPECT_EQ(a.at(name), b.at(name)) << name;
  }
}

TEST(TracedRun, KloopCountersRepeat) {
  const auto first = traced("kloop_cliff", 2, 4);
  const auto second = traced("kloop_cliff", 2, 4);
  expect_same_counters(first, second);
  EXPECT_GT(first.at("route.maze_pops"), 0.0);
}

TEST(TracedRun, KloopCountersMatchAcrossThreadCounts) {
  expect_same_counters(traced("kloop_cliff", 1, 4), traced("kloop_cliff", 2, 4));
}

TEST(TracedRun, ServeColdCountersRepeat) {
  const auto first = traced("serve_cold", 0, 6);
  expect_same_counters(first, traced("serve_cold", 0, 6));
  EXPECT_GT(first.at("place.fm_passes"), 0.0);
}

TEST(TracedRun, ServeHotCountersRepeat) {
  const auto first = traced("serve_hot", 0, 8);
  expect_same_counters(first, traced("serve_hot", 0, 8));
  EXPECT_EQ(first.at("sop.base_gates"), 0.0);  // dataset-served: no front end per job
}

}  // namespace
}  // namespace perfbench
