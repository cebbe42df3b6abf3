#include "svc/job.hpp"

#include <cmath>

#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace cals::svc {
namespace {

const char* partition_name(PartitionStrategy p) {
  switch (p) {
    case PartitionStrategy::kDagon: return "dagon";
    case PartitionStrategy::kCones: return "cones";
    case PartitionStrategy::kPlacementDriven: return "pdp";
  }
  return "?";
}

bool partition_from_name(const std::string& name, PartitionStrategy& out) {
  if (name == "dagon") out = PartitionStrategy::kDagon;
  else if (name == "cones") out = PartitionStrategy::kCones;
  else if (name == "pdp") out = PartitionStrategy::kPlacementDriven;
  else return false;
  return true;
}

const char* objective_name(MapObjective o) {
  return o == MapObjective::kArea ? "area" : "delay";
}

const char* metric_name(DistanceMetric m) {
  return m == DistanceMetric::kManhattan ? "manhattan" : "euclidean";
}

bool metric_from_name(const std::string& name, DistanceMetric& out) {
  if (name == "manhattan") out = DistanceMetric::kManhattan;
  else if (name == "euclidean") out = DistanceMetric::kEuclidean;
  else return false;
  return true;
}

}  // namespace

const char* error_code_token(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kInvalidNetwork: return "invalid_network";
    case ErrorCode::kInfeasible: return "infeasible";
    case ErrorCode::kBudgetExceeded: return "budget_exceeded";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "internal";
}

bool error_code_from_token(const std::string& token, ErrorCode& out) {
  if (token == "ok") out = ErrorCode::kOk;
  else if (token == "parse_error") out = ErrorCode::kParseError;
  else if (token == "invalid_network") out = ErrorCode::kInvalidNetwork;
  else if (token == "infeasible") out = ErrorCode::kInfeasible;
  else if (token == "budget_exceeded") out = ErrorCode::kBudgetExceeded;
  else if (token == "internal") out = ErrorCode::kInternal;
  else if (token == "cancelled") out = ErrorCode::kCancelled;
  else if (token == "deadline_exceeded") out = ErrorCode::kDeadlineExceeded;
  else return false;
  return true;
}

const char* design_format_name(DesignFormat format) {
  return format == DesignFormat::kPla ? "pla" : "blif";
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t seed) {
  return Fnv64(seed).update(text).digest();
}

std::string canonical_job_options(const JobSpec& spec) {
  const FlowOptions& o = spec.options;
  std::string s;
  // Front end + floorplan.
  s += strprintf("format=%s;sis=%d;auto_k=%d;rows=%u;util=%.17g;",
                 design_format_name(spec.format), spec.sis ? 1 : 0,
                 spec.auto_k ? 1 : 0, spec.rows, spec.util);
  // Mapping.
  s += strprintf("K=%.17g;partition=%s;objective=%s;metric=%s;twc=%d;",
                 o.K, partition_name(o.partition), objective_name(o.objective),
                 metric_name(o.metric), o.transitive_wire_cost ? 1 : 0);
  // Placement.
  s += strprintf("replace=%d;refine=%u;p.min_bin=%u;p.fm=%u;p.bal=%.17g;p.seed=%llu;",
                 o.replace_mapped ? 1 : 0, o.refine_passes, o.place.min_bin_objects,
                 o.place.fm_passes, o.place.balance_tolerance,
                 static_cast<unsigned long long>(o.place.seed));
  // Routing grid + router.
  s += strprintf("g.cell=%.17g;g.m1=%.17g;g.cap=%.17g;", o.rgrid.gcell_um,
                 o.rgrid.m1_fraction, o.rgrid.capacity_scale);
  s += strprintf("r.iters=%u;r.pres=%.17g;r.hist=%.17g;r.bbox=%d;",
                 o.route.max_rrr_iterations, o.route.present_penalty,
                 o.route.history_increment, o.route.bbox_margin);
  // Guardrails that can truncate a run (and so its metrics).
  s += strprintf("budget=%.17g;max_route=%u", o.phase_time_budget_s, o.max_route_iters);
  // Congestion repair. Appended only when enabled: at repair_passes == 0 the
  // window/cells knobs cannot affect results, and keeping the string empty
  // preserves every pre-repair cache key and ledger entry byte-for-byte.
  if (o.repair_passes != 0)
    s += strprintf(";rp.passes=%u;rp.window=%u;rp.cells=%u", o.repair_passes,
                   o.repair_window, o.repair_max_cells);
  return s;
}

std::string canonical_dataset_options(const JobSpec& spec) {
  // Exactly the fields consumed before any K evaluation: the front end
  // (format/sis — which synthesis path builds the network), the floorplan
  // (rows/util) and the match-database slot ({partition, metric}). The
  // service constructs DesignContexts with default PlaceOptions, so no
  // p.* field belongs here; everything else in canonical_job_options() is
  // evaluation-time and reuses the same context.
  const FlowOptions& o = spec.options;
  return strprintf("format=%s;sis=%d;rows=%u;util=%.17g;partition=%s;metric=%s",
                   design_format_name(spec.format), spec.sis ? 1 : 0, spec.rows,
                   spec.util, partition_name(o.partition), metric_name(o.metric));
}

JobKeys job_keys(const JobSpec& spec) {
  // One streaming pass over the (possibly large) design + library bytes,
  // then fork the chained FNV state per key for the cheap options suffix.
  Fnv64 prefix;
  prefix.update(spec.design_text);
  prefix.update("\x1f");  // separator so (ab, c) != (a, bc)
  prefix.update(spec.genlib_text.empty() ? std::string_view("corelib")
                                         : std::string_view(spec.genlib_text));
  prefix.update("\x1f");
  Fnv64 cache = prefix;
  cache.update(canonical_job_options(spec));
  Fnv64 dataset = prefix;
  dataset.update(canonical_dataset_options(spec));
  JobKeys keys;
  keys.cache_key =
      strprintf("%016llx", static_cast<unsigned long long>(cache.digest()));
  keys.dataset_key =
      strprintf("%016llx", static_cast<unsigned long long>(dataset.digest()));
  return keys;
}

std::string job_cache_key(const JobSpec& spec) { return job_keys(spec).cache_key; }

std::string job_spec_to_json(const JobSpec& spec) {
  JsonObjectWriter w;
  w.field("name", spec.name);
  w.field("format", design_format_name(spec.format));
  w.field("design", spec.design_text);
  w.field("genlib", spec.genlib_text);
  w.field("sis", spec.sis);
  w.field("auto_k", spec.auto_k);
  w.field("rows", spec.rows);
  w.field("util", spec.util);
  w.field("priority", static_cast<std::int64_t>(spec.priority));
  w.field("k", spec.options.K);
  w.field("partition", partition_name(spec.options.partition));
  w.field("objective", objective_name(spec.options.objective));
  w.field("metric", metric_name(spec.options.metric));
  w.field("twc", spec.options.transitive_wire_cost);
  w.field("replace", spec.options.replace_mapped);
  w.field("refine", spec.options.refine_passes);
  w.field("max_route_iters", spec.options.max_route_iters);
  w.field("time_budget_s", spec.options.phase_time_budget_s);
  // Placement / grid / router sub-options: every field the cache key hashes
  // must cross the wire, or the submitter's printed key and the server's
  // recomputed key could disagree.
  w.field("p_min_bin", spec.options.place.min_bin_objects);
  w.field("p_fm", spec.options.place.fm_passes);
  w.field("p_bal", spec.options.place.balance_tolerance);
  w.field("p_seed", spec.options.place.seed);
  w.field("g_cell_um", spec.options.rgrid.gcell_um);
  w.field("g_m1", spec.options.rgrid.m1_fraction);
  w.field("g_cap", spec.options.rgrid.capacity_scale);
  w.field("r_iters", spec.options.route.max_rrr_iterations);
  w.field("r_present", spec.options.route.present_penalty);
  w.field("r_history", spec.options.route.history_increment);
  w.field("r_bbox", static_cast<std::int64_t>(spec.options.route.bbox_margin));
  w.field("rp_passes", spec.options.repair_passes);
  w.field("rp_window", spec.options.repair_window);
  w.field("rp_cells", spec.options.repair_max_cells);
  // Robustness knobs (scheduling policy — NOT in either content key).
  w.field("max_attempts", spec.max_attempts);
  w.field("deadline_s", spec.deadline_s);
  w.field("attempt_base", spec.attempt_base);
  return std::move(w).finish();
}

Result<JobSpec> job_spec_from_json(std::string_view text) {
  Result<JsonObject> parsed = parse_json_object(text);
  if (!parsed.ok()) return parsed.status();
  const JsonObject& obj = *parsed;
  JobSpec spec;
  // Service jobs report partial metrics instead of aborting mid-flow; the
  // policy is not part of the cache key, so forcing it here is safe.
  spec.options.on_error = ErrorPolicy::kBestEffort;

  if (!get_string(obj, "design", spec.design_text) || spec.design_text.empty())
    return Status::parse_error("job: missing or empty 'design'");
  std::string format = "pla";
  get_string(obj, "format", format);
  if (format == "pla") spec.format = DesignFormat::kPla;
  else if (format == "blif") spec.format = DesignFormat::kBlif;
  else return Status::parse_error("job: unknown format '" + format + "'");

  get_string(obj, "name", spec.name);
  get_string(obj, "genlib", spec.genlib_text);
  get_bool(obj, "sis", spec.sis);
  get_bool(obj, "auto_k", spec.auto_k);
  get_u32(obj, "rows", spec.rows);
  get_double(obj, "util", spec.util);
  if (spec.util <= 0.0 || spec.util > 1.0)
    return Status::parse_error("job: 'util' must be in (0, 1]");
  get_i32(obj, "priority", spec.priority);
  get_double(obj, "k", spec.options.K);
  if (spec.options.K < 0.0)
    return Status::parse_error("job: 'k' must be >= 0");

  std::string token;
  if (get_string(obj, "partition", token) &&
      !partition_from_name(token, spec.options.partition))
    return Status::parse_error("job: unknown partition '" + token + "'");
  if (get_string(obj, "objective", token)) {
    if (token == "area") spec.options.objective = MapObjective::kArea;
    else if (token == "delay") spec.options.objective = MapObjective::kDelay;
    else return Status::parse_error("job: unknown objective '" + token + "'");
  }
  if (get_string(obj, "metric", token) &&
      !metric_from_name(token, spec.options.metric))
    return Status::parse_error("job: unknown metric '" + token + "'");
  get_bool(obj, "twc", spec.options.transitive_wire_cost);
  get_bool(obj, "replace", spec.options.replace_mapped);
  get_u32(obj, "refine", spec.options.refine_passes);
  get_u32(obj, "max_route_iters", spec.options.max_route_iters);
  get_double(obj, "time_budget_s", spec.options.phase_time_budget_s);
  get_u32(obj, "p_min_bin", spec.options.place.min_bin_objects);
  get_u32(obj, "p_fm", spec.options.place.fm_passes);
  get_double(obj, "p_bal", spec.options.place.balance_tolerance);
  get_u64(obj, "p_seed", spec.options.place.seed);
  get_double(obj, "g_cell_um", spec.options.rgrid.gcell_um);
  get_double(obj, "g_m1", spec.options.rgrid.m1_fraction);
  get_double(obj, "g_cap", spec.options.rgrid.capacity_scale);
  get_u32(obj, "r_iters", spec.options.route.max_rrr_iterations);
  get_double(obj, "r_present", spec.options.route.present_penalty);
  get_double(obj, "r_history", spec.options.route.history_increment);
  get_i32(obj, "r_bbox", spec.options.route.bbox_margin);
  // Out of these ranges the grid or the router aborts or never finishes.
  const RGridOptions& grid = spec.options.rgrid;
  if (!(grid.gcell_um > 0.0) || !std::isfinite(grid.gcell_um))
    return Status::parse_error("job: 'g_cell_um' must be positive and finite");
  if (!(grid.m1_fraction >= 0.0 && grid.m1_fraction <= 1.0))
    return Status::parse_error("job: 'g_m1' must be in [0, 1]");
  if (!(grid.capacity_scale > 0.0) || !std::isfinite(grid.capacity_scale))
    return Status::parse_error("job: 'g_cap' must be positive and finite");
  const RouteOptions& route = spec.options.route;
  if (!(route.present_penalty >= 0.0) || !std::isfinite(route.present_penalty))
    return Status::parse_error("job: 'r_present' must be finite and >= 0");
  if (!(route.history_increment >= 0.0) || !std::isfinite(route.history_increment))
    return Status::parse_error("job: 'r_history' must be finite and >= 0");
  if (route.bbox_margin < 0) return Status::parse_error("job: 'r_bbox' must be >= 0");
  get_u32(obj, "rp_passes", spec.options.repair_passes);
  get_u32(obj, "rp_window", spec.options.repair_window);
  get_u32(obj, "rp_cells", spec.options.repair_max_cells);
  get_u32(obj, "max_attempts", spec.max_attempts);
  get_double(obj, "deadline_s", spec.deadline_s);
  if (spec.deadline_s < 0.0)
    return Status::parse_error("job: 'deadline_s' must be >= 0");
  get_u32(obj, "attempt_base", spec.attempt_base);
  return spec;
}

void append_metrics_fields(JsonObjectWriter& w, const FlowMetrics& m) {
  w.field("m_k_factor", m.k_factor);
  w.field("m_num_cells", m.num_cells);
  w.field("m_cell_area_um2", m.cell_area_um2);
  w.field("m_utilization_pct", m.utilization_pct);
  w.field("m_routing_violations", m.routing_violations);
  w.field("m_routable", m.routable);
  w.field("m_wirelength_um", m.wirelength_um);
  w.field("m_hpwl_um", m.hpwl_um);
  w.field("m_critical_path_ns", m.critical_path_ns);
  w.field("m_crit_start", m.crit_start);
  w.field("m_crit_end", m.crit_end);
  w.field("m_num_rows", m.num_rows);
  w.field("m_chip_area_um2", m.chip_area_um2);
  w.field("m_map_seconds", m.map_seconds);
  w.field("m_pd_seconds", m.pd_seconds);
  w.field("m_place_seconds", m.place_seconds);
  w.field("m_route_seconds", m.route_seconds);
  w.field("m_sta_seconds", m.sta_seconds);
  w.field("m_rcm_passes", m.rcm_passes);
  w.field("m_rcm_cells_moved", m.rcm_cells_moved);
  w.field("m_rcm_overflow_removed", m.rcm_overflow_removed);
}

FlowMetrics metrics_from_json(const JsonObject& obj) {
  FlowMetrics m;
  get_double(obj, "m_k_factor", m.k_factor);
  get_u32(obj, "m_num_cells", m.num_cells);
  get_double(obj, "m_cell_area_um2", m.cell_area_um2);
  get_double(obj, "m_utilization_pct", m.utilization_pct);
  get_u64(obj, "m_routing_violations", m.routing_violations);
  get_bool(obj, "m_routable", m.routable);
  get_double(obj, "m_wirelength_um", m.wirelength_um);
  get_double(obj, "m_hpwl_um", m.hpwl_um);
  get_double(obj, "m_critical_path_ns", m.critical_path_ns);
  get_string(obj, "m_crit_start", m.crit_start);
  get_string(obj, "m_crit_end", m.crit_end);
  get_u32(obj, "m_num_rows", m.num_rows);
  get_double(obj, "m_chip_area_um2", m.chip_area_um2);
  get_double(obj, "m_map_seconds", m.map_seconds);
  get_double(obj, "m_pd_seconds", m.pd_seconds);
  get_double(obj, "m_place_seconds", m.place_seconds);
  get_double(obj, "m_route_seconds", m.route_seconds);
  get_double(obj, "m_sta_seconds", m.sta_seconds);
  get_u32(obj, "m_rcm_passes", m.rcm_passes);
  get_u32(obj, "m_rcm_cells_moved", m.rcm_cells_moved);
  get_u64(obj, "m_rcm_overflow_removed", m.rcm_overflow_removed);
  return m;
}

std::string job_outcome_to_json(const JobOutcome& outcome) {
  JsonObjectWriter w;
  w.field("status", error_code_token(outcome.status.code()));
  w.field("message", outcome.status.message());
  w.field("cache_hit", outcome.cache_hit);
  w.field("coalesced", outcome.coalesced);
  w.field("dataset", outcome.dataset);
  w.field("queue_seconds", outcome.queue_seconds);
  w.field("exec_seconds", outcome.exec_seconds);
  w.field("attempts", outcome.attempts);
  w.field("retries_exhausted", outcome.retries_exhausted);
  append_metrics_fields(w, outcome.metrics);
  return std::move(w).finish();
}

Result<JobOutcome> job_outcome_from_json(std::string_view text) {
  Result<JsonObject> parsed = parse_json_object(text);
  if (!parsed.ok()) return parsed.status();
  const JsonObject& obj = *parsed;
  JobOutcome outcome;
  std::string token;
  if (!get_string(obj, "status", token))
    return Status::parse_error("outcome: missing 'status'");
  ErrorCode code = ErrorCode::kOk;
  if (!error_code_from_token(token, code))
    return Status::parse_error("outcome: unknown status '" + token + "'");
  std::string message;
  get_string(obj, "message", message);
  if (code != ErrorCode::kOk) outcome.status = Status::error(code, std::move(message));
  get_bool(obj, "cache_hit", outcome.cache_hit);
  get_bool(obj, "coalesced", outcome.coalesced);
  get_bool(obj, "dataset", outcome.dataset);
  get_double(obj, "queue_seconds", outcome.queue_seconds);
  get_double(obj, "exec_seconds", outcome.exec_seconds);
  get_u32(obj, "attempts", outcome.attempts);
  get_bool(obj, "retries_exhausted", outcome.retries_exhausted);
  outcome.metrics = metrics_from_json(obj);
  return outcome;
}

}  // namespace cals::svc
