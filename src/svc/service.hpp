#pragma once
/// \file service.hpp
/// `cals::svc::FlowService` — the embeddable batch flow service (DESIGN.md
/// §10): a bounded priority queue of JobSpecs drained by a fixed set of
/// dispatcher threads, each running one congestion-aware flow at a time on
/// its own thread.
///
/// Scheduling model:
///  * Admission control is up-front: `submit` on a full queue returns
///    kBudgetExceeded with diagnostics instead of blocking — the caller
///    (or the spool front end) decides whether to retry. Running jobs do
///    not count against the queue bound.
///  * Ordering is strict priority, FIFO within a priority level (ties break
///    on submission id). Running jobs are never preempted, but `cancel`
///    reaches them cooperatively: every dispatch carries a CancelToken that
///    the flow polls at phase/iteration boundaries, so a cancelled running
///    job unwinds with a typed kCancelled status within one checkpoint. A
///    per-attempt deadline (JobSpec::deadline_s or the service default)
///    arms the same token; a watchdog thread fires expired deadlines even
///    when nothing else touches the job.
///  * Retry: an attempt that fails retryably (kInternal — crashes, injected
///    faults) re-enqueues with exponential backoff + deterministic jitter
///    until the attempt cap (max of JobSpec::max_attempts and the service
///    default). Parse/infeasible/cancel/deadline failures never retry.
///  * Threads: the max_parallel_jobs dispatchers are the service's only
///    workers. Each job runs on its dispatcher's thread at num_threads = 1,
///    so an auto_k job walks its K schedule one point at a time and J
///    dispatchers keep at most J flows busy.
///  * Duplicate coalescing: a submission whose cache key matches a job that
///    is still queued/running becomes a *follower* — it gets its own JobId
///    and record but no queue slot; when the primary finishes, the follower
///    copies its outcome (marked `coalesced`). Submitting the same design
///    twice in parallel therefore executes the flow exactly once and both
///    records carry bit-identical FlowMetrics.
///  * With a ResultCache attached, a dispatched job first consults the
///    cache; a hit returns the recorded metrics without running the flow.
///
/// Failure policy: a dispatch that throws (an armed `svc.dispatch` fault,
/// bad_alloc, ...) marks that job kFailed with a kInternal status and the
/// dispatcher moves on — one poisoned job never stops the queue from
/// draining (the no-crash contract tools/fault_sweep.sh enforces).
///
/// Everything is thread-safe; snapshots/records are returned by value.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "svc/flight.hpp"
#include "svc/job.hpp"
#include "svc/result_cache.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace cals::store {
class DatasetStore;
}  // namespace cals::store

namespace cals::svc {

class JobJournal;

/// The parsed front half of a job: design network, library and floorplan,
/// exactly as run_flow_job builds them (the floorplan is sized from the
/// PRE-compact gate count — DesignContext compacts later — so a packed
/// context reproduces the text path bit-identically).
struct JobDesign {
  BaseNetwork net;
  Library library;
  Floorplan floorplan;
};

/// Parses spec.design_text / spec.genlib_text and sizes the floorplan; all
/// text failures come back as the Result's status. This is the work a
/// precompiled dataset blob makes disappear from the dispatch path.
Result<JobDesign> build_job_design(const JobSpec& spec);

/// The largest routing grid a job may ask for, in gcells a side (the
/// paper's x1.0 dies use ~71). evaluate_job_on_context fails a larger one
/// with kParseError naming 'g_cell_um'.
inline constexpr std::uint32_t kMaxGcellsPerSide = 4096;

/// The back half of run_flow_job: evaluates `spec` against an
/// already-built context (options.K or the Fig. 3 schedule when
/// spec.auto_k) on the calling thread, at num_threads = 1 whatever the
/// spec says, guardrails engaged. Flow failures come back in
/// `JobOutcome::status` — never thrown. The context must have been built
/// for this spec's dataset options (canonical_dataset_options); the service
/// guarantees that by keying DatasetStore lookups on record.dataset_key.
/// A non-null `route_iters` receives the chosen run's per-iteration router
/// stats (the flight recorder's overflow trajectory); a non-null `repair`
/// the run's congestion-repair stats (empty for repair-off specs).
JobOutcome evaluate_job_on_context(const JobSpec& spec, const DesignContext& context,
                                   std::vector<RouteIterStats>* route_iters = nullptr,
                                   rcm::RepairStats* repair = nullptr);

/// Runs one job start-to-finish on the calling thread (no queueing, no
/// cache): parse the design + library, build the floorplan and context,
/// evaluate at options.K (or the Fig. 3 schedule when spec.auto_k). Parse
/// and flow failures come back in `JobOutcome::status` — never thrown.
/// `route_iters` and `repair` as in evaluate_job_on_context.
JobOutcome run_flow_job(const JobSpec& spec,
                        std::vector<RouteIterStats>* route_iters = nullptr,
                        rcm::RepairStats* repair = nullptr);

/// Backoff before retry number `attempt` (1-based attempts already
/// consumed): base * 2^(attempt-1) capped at `max_ms`, scaled by a
/// deterministic jitter in [0.5, 1.0) derived from (salt, attempt) via a
/// splitmix64 mix — two services retrying the same burst decorrelate
/// without any global randomness. Exposed for direct unit testing.
double retry_backoff_delay_ms(double base_ms, double max_ms,
                              std::uint32_t attempt, std::uint64_t salt);

struct ServiceOptions {
  /// Queued-job bound for admission control (running jobs excluded).
  std::size_t queue_capacity = 64;
  /// Dispatcher threads = jobs in flight at once (>= 1): the service's one
  /// concurrency knob.
  std::uint32_t max_parallel_jobs = 2;
  /// Ignored: each job runs on its dispatcher's thread. It stays only for
  /// callers that still set it (perfbench's serve workloads).
  std::uint32_t total_threads = 0;
  /// Optional persistent result cache (not owned; must outlive the service).
  ResultCache* cache = nullptr;
  /// Optional precompiled dataset store (not owned; must outlive the
  /// service). A dispatched job whose dataset_key has a served blob is
  /// evaluated against the preloaded context — zero parse / validation /
  /// initial-placement / match-db work on the dispatch path, bit-identical
  /// metrics. Jobs without a matching blob fall back to the text path.
  const store::DatasetStore* datasets = nullptr;
  /// Attach identical in-flight submissions to one execution (see file
  /// comment). Off = every submission queues independently.
  bool coalesce_duplicates = true;
  /// Start with dispatch paused (deterministic tests: submit a batch, then
  /// resume()).
  bool start_paused = false;
  /// Flight-record retention: the in-memory ring keeps the last N resolved
  /// jobs for the /jobs introspection endpoint and spool publishing.
  std::size_t flight_ring_capacity = 128;
  /// Optional write-ahead job journal (not owned; must outlive the
  /// service). Jobs submitted with a journal stem get every state
  /// transition recorded — the crash-recovery substrate (DESIGN.md §14).
  JobJournal* journal = nullptr;
  /// Service-wide attempt-cap floor: the effective cap per job is
  /// max(spec.max_attempts, default_max_attempts). 1 = no in-process retry.
  std::uint32_t default_max_attempts = 1;
  /// Retry backoff base / ceiling (see retry_backoff_delay_ms).
  double retry_backoff_ms = 250.0;
  double retry_backoff_max_ms = 10000.0;
  /// Per-attempt deadline applied when a spec carries none; 0 = unlimited.
  double default_deadline_s = 0.0;
};

class FlowService {
 public:
  explicit FlowService(ServiceOptions options = {});
  /// Cancels everything still queued and joins the dispatchers (running
  /// jobs finish). Use drain() first for a graceful end.
  ~FlowService();
  FlowService(const FlowService&) = delete;
  FlowService& operator=(const FlowService&) = delete;

  /// Admits `spec` or rejects with kBudgetExceeded (queue full) /
  /// kInternal (service shut down). The returned id is immediately valid
  /// for snapshot/wait/cancel. A non-empty `journal_stem` ties the job to
  /// its spool file in the attached journal (no journal or no stem = no
  /// journaling for this job). spec.attempt_base seeds the attempt counter
  /// (crash-orphan recovery).
  Result<JobId> submit(JobSpec spec, std::string journal_stem = {});

  /// Cancels a job. Still-queued (including retry-waiting) jobs resolve to
  /// kCancelled immediately; a running job has its CancelToken fired and
  /// resolves once the flow reaches its next checkpoint (true = request
  /// delivered, not yet terminal). Returns false when the job is unknown
  /// or already terminal.
  bool cancel(JobId id);

  /// Fires the CancelToken of every running job (the SIGTERM drain path:
  /// stop dispatch with pause()/shutdown(false), cancel the in-flight work,
  /// then drain). Returns how many tokens were fired.
  std::size_t cancel_running();

  /// Blocks until `id` reaches a terminal state and returns its record.
  /// `id` must come from submit() (unknown ids are an invariant violation).
  JobRecord wait(JobId id);

  /// Point-in-time copy of the record, or nullopt for an unknown id.
  std::optional<JobRecord> snapshot(JobId id) const;

  /// Blocks until no job is queued or running (resumes dispatch if paused).
  void drain();

  /// Stops the dispatchers. cancel_queued=false drains first (graceful);
  /// true cancels everything still queued. Idempotent; submit() fails
  /// afterwards.
  void shutdown(bool cancel_queued);

  /// Pause/resume dispatch (running jobs are unaffected). For tests and
  /// operational backpressure.
  void pause();
  void resume();

  struct Stats {
    std::uint64_t submitted = 0;   ///< accepted submissions (incl. followers)
    std::uint64_t rejected = 0;    ///< admission rejections (queue full)
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t coalesced = 0;   ///< followers resolved from a primary
    std::uint64_t cache_hits = 0;
    std::uint64_t dataset_hits = 0;  ///< flows served from a precompiled dataset
    std::uint64_t flow_executions = 0;  ///< flows actually run (not cached/coalesced)
    std::uint64_t retries = 0;     ///< attempts re-enqueued after retryable failure
    std::size_t queued = 0;        ///< current depth (incl. retry-waiting jobs)
    std::size_t running = 0;       ///< current in-flight
  };
  Stats stats() const;

  /// False once shutdown() was called (submissions are refused). /healthz.
  bool accepting() const;

  /// Newest-first flight records of the last flight_ring_capacity resolved
  /// jobs (the /jobs endpoint payload).
  std::vector<FlightRecord> recent_flights() const;
  /// The retained flight record for `id`, nullopt if unknown or evicted.
  std::optional<FlightRecord> flight(JobId id) const;

 private:
  struct Job {
    JobRecord record;
    JobSpec spec;
    std::chrono::steady_clock::time_point submitted;
    std::vector<JobId> followers;  ///< ids coalesced onto this primary
    std::uint64_t queue_depth_at_submit = 0;  ///< backlog seen at admission
    std::string journal_stem;      ///< spool stem in the journal; empty = none
    std::uint32_t attempt = 0;     ///< attempts consumed (seeded by attempt_base)
    /// Live for the duration of one attempt; shared with the watchdog so a
    /// deadline can fire after the job finished without touching freed state.
    std::shared_ptr<CancelToken> cancel;
    std::vector<std::string> retry_events;  ///< per-retry provenance (flights)
  };

  /// What execute() learns beyond the JobOutcome, destined for the flight
  /// record: dataset pack version, router convergence telemetry and any
  /// degradation events.
  struct FlightExtras {
    std::uint64_t dataset_version = 0;
    std::vector<RouteIterStats> route_iters;
    rcm::RepairStats repair;  ///< congestion-repair per-pass trajectory
    std::vector<std::string> events;
  };

  void dispatcher_loop();
  void watchdog_loop();
  /// Runs `job` outside the lock on this dispatcher's thread, then
  /// finalizes it (and its followers) — or re-enqueues it with backoff when
  /// the attempt failed retryably under the cap.
  void execute(const std::shared_ptr<Job>& job);
  void finalize_locked(const std::shared_ptr<Job>& job, JobOutcome outcome,
                       const FlightExtras& extras);
  void push_flight_locked(const Job& job, const FlightExtras& extras);
  void publish_queue_depth_locked() const;
  std::uint32_t attempt_cap(const Job& job) const;
  /// Write-ahead record of a terminal transition (no-op without a journal
  /// or a stem). Embeds the full result JSON so recovery can republish.
  void journal_terminal_locked(const Job& job);
  void cancel_queued_job_locked(Job& job);

  const ServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable state_changed_;
  enum class Stopping : std::uint8_t { kNo, kDrain, kNow };
  Stopping stopping_ = Stopping::kNo;
  bool paused_ = false;
  JobId next_id_ = 1;
  std::uint64_t dispatch_seq_ = 0;
  std::map<JobId, std::shared_ptr<Job>> jobs_;
  /// (-priority, id): begin() is the highest priority, oldest submission.
  std::set<std::pair<std::int64_t, JobId>> queue_;
  /// Jobs waiting out a retry backoff, keyed by when they become due; the
  /// dispatcher promotes due entries back into queue_.
  std::multimap<std::chrono::steady_clock::time_point, JobId> retry_queue_;
  /// cache key -> primary job still queued/running (coalescing target).
  std::map<std::string, JobId> active_by_key_;
  std::size_t running_ = 0;
  Stats stats_;
  /// Resolved-job flight records, newest first. Own (leaf) lock: pushes
  /// happen under mutex_, reads (the HTTP endpoints) don't need it.
  FlightRing flights_;
  /// Armed per-attempt deadlines the watchdog sleeps toward: id -> token.
  std::map<JobId, std::shared_ptr<CancelToken>> armed_deadlines_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::vector<std::thread> dispatchers_;
  std::thread watchdog_;
};

}  // namespace cals::svc
