#pragma once
/// \file report.hpp
/// The traced run's per-layer accounting: what each layer did (work counts
/// from the public result structs and the obs registry) and how long it
/// took (span self times), folded into the metric list BENCHMARK.json
/// declares under per_layer.

#include <cstdint>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "util/obs.hpp"

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

/// Registry counters gathered over one phase of a traced run: enable obs,
/// take the delta at the end, disable again (and drop the program's own
/// trace events, which this benchmark does not use).
class ObsWindow {
 public:
  ObsWindow();
  ~ObsWindow();
  ObsWindow(const ObsWindow&) = delete;
  ObsWindow& operator=(const ObsWindow&) = delete;
  /// Counter deltas since construction.
  cals::obs::Registry::Snapshot delta() const;

 private:
  cals::obs::Registry::Snapshot start_;
};

struct LayerTally {
  Tracer tracer;
  /// Registry deltas: over the serial replay, and over the obs-on rerun of
  /// the workload itself (where the parallel and service paths run).
  cals::obs::Registry::Snapshot replay_counters;
  cals::obs::Registry::Snapshot workload_counters;

  std::uint64_t base_gates = 0;
  std::uint64_t legalize_spills = 0;
  std::uint64_t route_candidates = 0;
  std::uint64_t route_violations = 0;
  std::uint64_t rcm_passes = 0;
  std::uint64_t rcm_cells_moved = 0;
  std::uint64_t rcm_nets_rerouted = 0;
  std::uint64_t rcm_reverted_passes = 0;
  std::uint64_t rcm_overflow_removed = 0;
  /// Evaluations the serial Fig. 3 loop needs (kloop) or executed jobs
  /// (serve): the useful share of flow.runs.
  std::uint64_t useful_evaluations = 0;

  std::vector<double> queue_wait_ms, exec_ms, handoff_ms;
  std::uint64_t submissions = 0, cache_hits = 0, dataset_jobs = 0;
  double blob_mb = 0.0;
  double overhead_pct = 0.0;

  /// Adds one replayed evaluation's work counts.
  void add_run(const cals::FlowRun& run);
};

/// Appends every per-layer metric, in BENCHMARK.json order. Layers that do
/// not run in the workload report zero.
void append_layer_metrics(const LayerTally& tally, RunResult& result);

/// Notes naming which counters repeat exactly and which depend on timing.
void append_counter_labels(RunResult& result);

/// Per-layer metric names whose values must repeat exactly between traced
/// runs of the same seed and between thread counts (the determinism test).
const std::vector<std::string>& deterministic_counters();

}  // namespace perfbench
