#include "svc/flight.hpp"

#include <algorithm>
#include <charconv>

#include "util/strings.hpp"

namespace cals::svc {
namespace {

// ---- joined-vector encoding -------------------------------------------------
// The flat-JSON codec has no arrays, so trajectory vectors ride as one
// separator-joined string value. Numbers use %llu (they are all unsigned
// integers); events use '\n' since a diagnostic line can contain commas.

template <typename T>
std::string join_u64(const std::vector<T>& values) {
  std::string out;
  for (const T v : values) {
    if (!out.empty()) out += ',';
    out += strprintf("%llu", static_cast<unsigned long long>(v));
  }
  return out;
}

template <typename T>
std::vector<T> split_u64(std::string_view text) {
  std::vector<T> out;
  std::size_t pos = 0;
  while (pos <= text.size() && !text.empty()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view token =
        text.substr(pos, comma == std::string_view::npos ? comma : comma - pos);
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc() && ptr == token.data() + token.size())
      out.push_back(static_cast<T>(value));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    if (!out.empty()) out += '\n';
    out += line;
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      out.emplace_back(text.substr(pos));
      break;
    }
    out.emplace_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

}  // namespace

FlightRecord flight_from_record(const JobRecord& record) {
  FlightRecord f;
  f.id = record.id;
  f.name = record.name;
  f.state = job_state_name(record.state);
  f.priority = record.priority;
  f.run_sequence = record.run_sequence;
  f.cache_key = record.cache_key;
  f.dataset_key = record.dataset_key;

  const JobOutcome& o = record.outcome;
  f.queue_seconds = o.queue_seconds;
  f.exec_seconds = o.exec_seconds;
  f.cache_hit = o.cache_hit;
  f.coalesced = o.coalesced;
  f.dataset = o.dataset;
  f.attempts = o.attempts;
  f.retries_exhausted = o.retries_exhausted;
  f.status_code = error_code_token(o.status.code());
  f.status_message = o.status.message();

  const FlowMetrics& m = o.metrics;
  f.map_seconds = m.map_seconds;
  f.place_seconds = m.place_seconds;
  f.route_seconds = m.route_seconds;
  f.sta_seconds = m.sta_seconds;
  f.k_factor = m.k_factor;
  f.num_cells = m.num_cells;
  f.cell_area_um2 = m.cell_area_um2;
  f.wirelength_um = m.wirelength_um;
  f.routing_violations = m.routing_violations;
  f.routable = m.routable;
  f.critical_path_ns = m.critical_path_ns;
  f.num_rows = m.num_rows;
  f.rcm_passes = m.rcm_passes;
  f.rcm_cells_moved = m.rcm_cells_moved;
  f.rcm_overflow_removed = m.rcm_overflow_removed;
  return f;
}

void flight_add_route_stats(FlightRecord& flight,
                            const std::vector<RouteIterStats>& iters) {
  flight.overflow_trajectory.reserve(flight.overflow_trajectory.size() + iters.size());
  flight.dirty_edges.reserve(flight.dirty_edges.size() + iters.size());
  for (const RouteIterStats& it : iters) {
    flight.overflow_trajectory.push_back(it.overflow);
    flight.dirty_edges.push_back(it.dirty_edges);
    flight.ripups += it.rerouted;
    flight.maze_pops += it.maze_pops;
  }
}

void flight_add_repair_stats(FlightRecord& flight, const rcm::RepairStats& repair) {
  flight.rcm_overflow_trajectory.reserve(flight.rcm_overflow_trajectory.size() +
                                         repair.passes.size());
  for (const rcm::RepairPassStats& pass : repair.passes)
    flight.rcm_overflow_trajectory.push_back(pass.overflow_after);
}

std::string flight_record_to_json(const FlightRecord& f) {
  JsonObjectWriter w;
  w.field("schema", kFlightSchema);
  w.field("job_id", static_cast<std::uint64_t>(f.id));
  w.field("name", f.name);
  w.field("state", f.state);
  w.field("priority", static_cast<std::int64_t>(f.priority));
  w.field("run_sequence", f.run_sequence);
  w.field("cache_key", f.cache_key);
  w.field("dataset_key", f.dataset_key);
  w.field("queue_seconds", f.queue_seconds);
  w.field("exec_seconds", f.exec_seconds);
  w.field("queue_depth_at_submit", f.queue_depth_at_submit);
  w.field("cache_hit", f.cache_hit);
  w.field("coalesced", f.coalesced);
  w.field("dataset", f.dataset);
  w.field("dataset_version", f.dataset_version);
  w.field("attempts", f.attempts);
  w.field("retries_exhausted", f.retries_exhausted);
  w.field("status", f.status_code);
  w.field("message", f.status_message);
  w.field("map_seconds", f.map_seconds);
  w.field("place_seconds", f.place_seconds);
  w.field("route_seconds", f.route_seconds);
  w.field("sta_seconds", f.sta_seconds);
  w.field("route_iterations", f.route_iterations());
  w.field("overflow_trajectory", join_u64(f.overflow_trajectory));
  w.field("dirty_edges", join_u64(f.dirty_edges));
  w.field("ripups", f.ripups);
  w.field("maze_pops", f.maze_pops);
  w.field("rcm_passes", f.rcm_passes);
  w.field("rcm_cells_moved", f.rcm_cells_moved);
  w.field("rcm_overflow_removed", f.rcm_overflow_removed);
  w.field("rcm_overflow_trajectory", join_u64(f.rcm_overflow_trajectory));
  w.field("k_factor", f.k_factor);
  w.field("num_cells", f.num_cells);
  w.field("cell_area_um2", f.cell_area_um2);
  w.field("wirelength_um", f.wirelength_um);
  w.field("routing_violations", f.routing_violations);
  w.field("routable", f.routable);
  w.field("critical_path_ns", f.critical_path_ns);
  w.field("num_rows", f.num_rows);
  w.field("events", join_lines(f.events));
  return std::move(w).finish();
}

Result<FlightRecord> flight_record_from_json(std::string_view text) {
  Result<JsonObject> parsed = parse_json_object(text);
  if (!parsed.ok()) return parsed.status();
  const JsonObject& obj = parsed.value();

  std::string schema;
  if (!get_string(obj, "schema", schema) || schema != kFlightSchema)
    return Status::parse_error(
        strprintf("flight: missing or unknown schema marker (want '%s')",
                  std::string(kFlightSchema).c_str()));

  FlightRecord f;
  std::uint64_t id = 0;
  get_u64(obj, "job_id", id);
  f.id = id;
  get_string(obj, "name", f.name);
  get_string(obj, "state", f.state);
  get_i32(obj, "priority", f.priority);
  get_u64(obj, "run_sequence", f.run_sequence);
  get_string(obj, "cache_key", f.cache_key);
  get_string(obj, "dataset_key", f.dataset_key);
  get_double(obj, "queue_seconds", f.queue_seconds);
  get_double(obj, "exec_seconds", f.exec_seconds);
  get_u64(obj, "queue_depth_at_submit", f.queue_depth_at_submit);
  get_bool(obj, "cache_hit", f.cache_hit);
  get_bool(obj, "coalesced", f.coalesced);
  get_bool(obj, "dataset", f.dataset);
  get_u64(obj, "dataset_version", f.dataset_version);
  get_u32(obj, "attempts", f.attempts);
  get_bool(obj, "retries_exhausted", f.retries_exhausted);
  get_string(obj, "status", f.status_code);
  get_string(obj, "message", f.status_message);
  get_double(obj, "map_seconds", f.map_seconds);
  get_double(obj, "place_seconds", f.place_seconds);
  get_double(obj, "route_seconds", f.route_seconds);
  get_double(obj, "sta_seconds", f.sta_seconds);
  std::string joined;
  if (get_string(obj, "overflow_trajectory", joined))
    f.overflow_trajectory = split_u64<std::uint64_t>(joined);
  joined.clear();
  if (get_string(obj, "dirty_edges", joined))
    f.dirty_edges = split_u64<std::uint32_t>(joined);
  get_u64(obj, "ripups", f.ripups);
  get_u64(obj, "maze_pops", f.maze_pops);
  get_u32(obj, "rcm_passes", f.rcm_passes);
  get_u32(obj, "rcm_cells_moved", f.rcm_cells_moved);
  get_u64(obj, "rcm_overflow_removed", f.rcm_overflow_removed);
  joined.clear();
  if (get_string(obj, "rcm_overflow_trajectory", joined))
    f.rcm_overflow_trajectory = split_u64<std::uint64_t>(joined);
  get_double(obj, "k_factor", f.k_factor);
  get_u32(obj, "num_cells", f.num_cells);
  get_double(obj, "cell_area_um2", f.cell_area_um2);
  get_double(obj, "wirelength_um", f.wirelength_um);
  get_u64(obj, "routing_violations", f.routing_violations);
  get_bool(obj, "routable", f.routable);
  get_double(obj, "critical_path_ns", f.critical_path_ns);
  get_u32(obj, "num_rows", f.num_rows);
  joined.clear();
  if (get_string(obj, "events", joined) && !joined.empty())
    f.events = split_lines(joined);
  return f;
}

// ---- FlightRing -------------------------------------------------------------

FlightRing::FlightRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

void FlightRing::push(FlightRecord flight) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push_front(std::move(flight));
  while (ring_.size() > capacity_) ring_.pop_back();
}

std::vector<FlightRecord> FlightRing::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::optional<FlightRecord> FlightRing::find(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(ring_.begin(), ring_.end(),
                               [id](const FlightRecord& f) { return f.id == id; });
  if (it == ring_.end()) return std::nullopt;
  return *it;
}

std::size_t FlightRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

}  // namespace cals::svc
