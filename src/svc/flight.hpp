#pragma once
/// \file flight.hpp
/// `cals::svc` per-job flight recorder (DESIGN.md §13): every job the
/// service resolves leaves behind one structured FlightRecord — why it got
/// its QoR, not just what the QoR was. The record captures the scheduling
/// story (queue wait, admission path, claimed thread slice, queue depth at
/// submit), result provenance (cache hit / coalesced / dataset blob + pack
/// version), the per-phase wall breakdown, the router's convergence
/// telemetry (overflow trajectory, dirty-set sizes, rip-up and maze-pop
/// totals from RouteIterStats) and the final QoR figures.
///
/// Records live in two places:
///  * an in-memory FlightRing of the last N jobs inside FlowService, served
///    live by `cals_serve --listen` at /jobs and /jobs/<id>;
///  * a flat-JSON file per job under the spool's flights/ directory
///    (spool_publish_flight), sibling to the done/ or failed/ result record
///    — the input to tools/qor_ledger.py.
///
/// Telemetry is strictly best-effort: a failure to serialize or persist a
/// flight record degrades to a diagnostic line and can never fail the job
/// it describes (tools/fault_sweep.sh proves this via the `svc.flight`
/// fault point).

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rcm/rcm.hpp"
#include "route/router.hpp"
#include "svc/job.hpp"

namespace cals::svc {

/// Wire-format marker: every serialized flight record carries
/// `"schema": "cals-flight-v1"` so tooling (check_trace.py --flight,
/// qor_ledger.py) can tell flight files from other flat-JSON records.
inline constexpr std::string_view kFlightSchema = "cals-flight-v1";

struct FlightRecord {
  // ---- identity ------------------------------------------------------------
  JobId id = 0;
  std::string name;
  std::string state;  ///< terminal job_state_name: done | failed | cancelled
  std::int32_t priority = 0;
  std::uint64_t run_sequence = 0;  ///< 0 = never dispatched (coalesced/cancelled)
  std::string cache_key;
  std::string dataset_key;

  // ---- scheduling ----------------------------------------------------------
  double queue_seconds = 0.0;  ///< submit -> dispatch (or resolution)
  double exec_seconds = 0.0;   ///< dispatch -> terminal (0 when nothing ran)
  std::uint64_t queue_depth_at_submit = 0;  ///< backlog the job queued behind

  // ---- provenance ----------------------------------------------------------
  bool cache_hit = false;
  bool coalesced = false;
  bool dataset = false;             ///< served from a precompiled dataset blob
  std::uint64_t dataset_version = 0;  ///< pack version of that blob (0 = none)
  std::uint32_t attempts = 0;       ///< execution attempts consumed (0 = none ran)
  bool retries_exhausted = false;   ///< failed with the attempt cap burned through

  // ---- status --------------------------------------------------------------
  std::string status_code = "ok";  ///< error_code_token spelling
  std::string status_message;

  // ---- per-phase wall times (seconds) ---------------------------------------
  double map_seconds = 0.0;
  double place_seconds = 0.0;
  double route_seconds = 0.0;
  double sta_seconds = 0.0;

  // ---- route convergence telemetry ------------------------------------------
  // One entry per rip-up-and-reroute iteration of the chosen run (empty when
  // no flow executed for this record).
  std::vector<std::uint64_t> overflow_trajectory;  ///< overflow entering each iter
  std::vector<std::uint32_t> dirty_edges;          ///< dirty set per iter
  std::uint64_t ripups = 0;     ///< total segments ripped up and rerouted
  std::uint64_t maze_pops = 0;  ///< total A* heap pops across all mazes

  // ---- congestion repair telemetry (cals::rcm) -------------------------------
  // Totals come from the outcome metrics; the per-pass trajectory is layered
  // on by the service via flight_add_repair_stats. All zero/empty when the
  // job ran with repair off.
  std::uint32_t rcm_passes = 0;          ///< repair passes executed
  std::uint32_t rcm_cells_moved = 0;     ///< cells relocated across all passes
  std::uint64_t rcm_overflow_removed = 0;
  std::vector<std::uint64_t> rcm_overflow_trajectory;  ///< overflow after each pass

  // ---- final QoR -----------------------------------------------------------
  double k_factor = 0.0;
  std::uint32_t num_cells = 0;
  double cell_area_um2 = 0.0;
  double wirelength_um = 0.0;
  std::uint64_t routing_violations = 0;
  bool routable = false;
  double critical_path_ns = 0.0;
  std::uint32_t num_rows = 0;

  // ---- fault / degradation events, oldest first -----------------------------
  std::vector<std::string> events;

  std::uint32_t route_iterations() const {
    return static_cast<std::uint32_t>(overflow_trajectory.size());
  }
};

/// Seeds a FlightRecord from a (terminal) JobRecord: identity, provenance
/// flags, status tokens, phase walls and QoR all come from the record and
/// its outcome metrics. The service layers the pieces only it knows on top
/// (queue depth, route telemetry, dataset version, events).
FlightRecord flight_from_record(const JobRecord& record);

/// Folds one run's per-iteration router stats into the record's trajectory
/// vectors and rip-up/maze totals.
void flight_add_route_stats(FlightRecord& flight,
                            const std::vector<RouteIterStats>& iters);

/// Folds one run's congestion-repair stats into the record's per-pass
/// overflow trajectory (the totals already arrive via the outcome metrics in
/// flight_from_record). No-op for a repair-off run (no passes).
void flight_add_repair_stats(FlightRecord& flight, const rcm::RepairStats& repair);

/// FlightRecord <-> flat JSON (the flights/ file format). Vector fields ride
/// in the flat-object codec as joined strings: trajectories comma-separated
/// ("41,7,0"), events newline-separated. Unknown keys are ignored on read,
/// so the schema can grow.
std::string flight_record_to_json(const FlightRecord& flight);
Result<FlightRecord> flight_record_from_json(std::string_view text);

/// Fixed-capacity ring of the most recent flight records, newest first.
/// Thread-safe; reads return copies (snapshot semantics, same as
/// FlowService::snapshot).
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity);

  void push(FlightRecord flight);
  /// Newest-first copies of everything retained.
  std::vector<FlightRecord> recent() const;
  /// The retained record for `id`, if it has not been evicted.
  std::optional<FlightRecord> find(JobId id) const;
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<FlightRecord> ring_;  ///< front = newest
};

}  // namespace cals::svc
