#include "report.hpp"

#include <cstring>

#include "rcm/rcm.hpp"

namespace perfbench {

using cals::obs::Registry;

ObsWindow::ObsWindow() : start_(Registry::instance().snapshot()) {
  cals::obs::set_enabled(true);
}

ObsWindow::~ObsWindow() {
  cals::obs::set_enabled(false);
  cals::obs::discard_events();
}

Registry::Snapshot ObsWindow::delta() const {
  return Registry::instance().snapshot().delta_since(start_);
}

void LayerTally::add_run(const cals::FlowRun& run) {
  legalize_spills += run.legalization.spills;
  for (const cals::RouteIterStats& it : run.route.iter_stats) route_candidates += it.candidates;
  route_violations += run.route.total_overflow;
  rcm_passes += run.repair.passes_run;
  rcm_cells_moved += run.repair.cells_moved;
  for (const cals::rcm::RepairPassStats& pass : run.repair.passes) {
    rcm_nets_rerouted += pass.nets_rerouted;
    rcm_reverted_passes += pass.reverted ? 1 : 0;
  }
  rcm_overflow_removed += run.repair.overflow_removed();
}

namespace {

std::uint64_t counter(const Registry::Snapshot& snapshot, const char* name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double ratio(std::uint64_t useful, std::uint64_t attempts) {
  return attempts == 0 ? 0.0 : static_cast<double>(useful) / static_cast<double>(attempts);
}

/// Per-job totals of one layer's span time, ms (jobs where it ran).
std::vector<double> per_job_ms(const Tracer& tracer, const char* layer) {
  std::vector<double> per_job;
  std::uint32_t job = UINT32_MAX;
  for (const Tracer::Span& span : tracer.spans()) {
    if (std::strcmp(span.layer, layer) != 0) continue;
    if (span.job != job) {
      per_job.push_back(0.0);
      job = span.job;
    }
    per_job.back() += (span.end - span.start) * 1e3;
  }
  return per_job;
}

}  // namespace

void append_layer_metrics(const LayerTally& t, RunResult& r) {
  const auto self = t.tracer.self_seconds_by_layer();
  const auto self_s = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto replay = [&](const char* name) {
    return static_cast<double>(counter(t.replay_counters, name));
  };
  const auto& w = t.workload_counters;

  r.add("sop.self_s", self_s("sop"), "s");
  r.add("sop.base_gates", static_cast<double>(t.base_gates), "count");
  r.add("place.global_s", self_s("place.global"), "s");
  r.add("place.fm_passes", replay("place.fm_passes"), "count");
  r.add("place.bisections", replay("place.bisections"), "count");
  r.add("place.legalize_s", self_s("place.legalize"), "s");
  r.add("place.legalize_spills", static_cast<double>(t.legalize_spills), "count");
  r.add("place.spec_hit_ratio",
        ratio(counter(w, "place.spec_hits"),
              counter(w, "place.spec_hits") + counter(w, "place.spec_misses")),
        "ratio");
  r.add("map.match_db_s", self_s("map.match_db"), "s");
  r.add("map.match_db_builds", replay("map.match_db_builds"), "count");
  r.add("map.cover_s", self_s("map.cover"), "s");
  r.add("map.matches_tried", replay("map.matches_tried"), "count");
  r.add("map.cover_vertices", replay("map.cover_vertices"), "count");
  r.add("route.self_s", self_s("route"), "s");
  r.add("route.rrr_iterations", replay("route.rrr_iterations"), "count");
  r.add("route.candidates", static_cast<double>(t.route_candidates), "count");
  r.add("route.rerouted_segments", replay("route.rerouted_segments"), "count");
  r.add("route.maze_pops", replay("route.maze_pops"), "count");
  r.add("route.pattern_segments", replay("route.pattern_segments"), "count");
  r.add("route.violations", static_cast<double>(t.route_violations), "count");
  r.add("route.plan_hit_ratio",
        ratio(counter(w, "route.plan_hits"),
              counter(w, "route.plan_hits") + counter(w, "route.plan_misses")),
        "ratio");
  r.add("rcm.self_s", self_s("rcm"), "s");
  r.add("rcm.passes", static_cast<double>(t.rcm_passes), "count");
  r.add("rcm.cells_moved", static_cast<double>(t.rcm_cells_moved), "count");
  r.add("rcm.nets_rerouted", static_cast<double>(t.rcm_nets_rerouted), "count");
  r.add("rcm.reverted_passes", static_cast<double>(t.rcm_reverted_passes), "count");
  r.add("rcm.overflow_removed", static_cast<double>(t.rcm_overflow_removed), "count");
  r.add("sta.self_s", self_s("sta"), "s");
  r.add("sta.arrival_propagations", replay("sta.arrival_propagations"), "count");
  r.add("flow.evaluations", static_cast<double>(counter(w, "flow.runs")), "count");
  r.add("flow.useful_eval_ratio", ratio(t.useful_evaluations, counter(w, "flow.runs")),
        "ratio");
  r.add("pool.busy_s", static_cast<double>(counter(w, "pool.busy_ns")) * 1e-9, "s");
  r.add("pool.tasks", static_cast<double>(counter(w, "pool.tasks")), "count");
  r.add("store.pack_s", self_s("store.pack"), "s");
  r.add("store.load_s", self_s("store.load"), "s");
  r.add("store.blob_mb", t.blob_mb, "MB");
  r.add("store.dataset_jobs", static_cast<double>(t.dataset_jobs), "count");
  r.add("svc.queue_wait_ms", median(t.queue_wait_ms), "ms");
  r.add("svc.exec_ms", median(t.exec_ms), "ms");
  r.add("svc.handoff_ms", median(t.handoff_ms), "ms");
  r.add("svc.cache_hit_ratio", ratio(t.cache_hits, t.submissions), "ratio");
  r.add("svc.cache_lookup_ms", median(per_job_ms(t.tracer, "svc.cache_lookup")), "ms");
  r.add("svc.cache_store_ms", median(per_job_ms(t.tracer, "svc.cache_store")), "ms");
  r.add("svc.journal_append_ms", median(per_job_ms(t.tracer, "svc.journal")), "ms");
  r.add("obs.overhead_pct", t.overhead_pct, "%");
  r.add("trace.unattributed_pct", t.tracer.unattributed_pct(), "%");
}

const std::vector<std::string>& deterministic_counters() {
  static const std::vector<std::string> names = {
      "sop.base_gates",        "place.legalize_spills",   "map.match_db_builds",
      "map.matches_tried",     "map.cover_vertices",      "route.rrr_iterations",
      "route.candidates",      "route.rerouted_segments", "route.maze_pops",
      "route.pattern_segments", "route.violations",       "rcm.passes",
      "rcm.cells_moved",       "rcm.nets_rerouted",       "rcm.reverted_passes",
      "rcm.overflow_removed",  "sta.arrival_propagations", "place.fm_passes",
      "place.bisections",      "store.blob_mb",           "store.dataset_jobs",
      "svc.cache_hit_ratio"};
  return names;
}

void append_counter_labels(RunResult& r) {
  std::string exact;
  for (const std::string& name : deterministic_counters())
    exact += (exact.empty() ? "" : " ") + name;
  r.notes.push_back("deterministic counters (repeat exactly, at any thread count): " + exact);
  r.notes.push_back(
      "timing-dependent: every *_s, *_ms and *_pct metric, pool.busy_s, "
      "pool.tasks; place.spec_hit_ratio, route.plan_hit_ratio, flow.evaluations and "
      "flow.useful_eval_ratio repeat for one thread count on kloop_cliff but follow the "
      "service's per-job thread slices on the serve workloads");
}

}  // namespace perfbench
