#pragma once
/// \file job.hpp
/// `cals::svc` job model — what one batch-flow submission carries
/// (JobSpec), what the service records about it (JobRecord), and the
/// content-addressed cache key that makes resubmissions near-free.
///
/// A JobSpec is self-contained: it carries the design *text* (PLA or BLIF)
/// and optionally the genlib text, not paths, so a job file can be replayed
/// on any machine and the cache key can hash exactly the bytes that
/// determine the result. The key is FNV-1a 64 over
///   (design bytes, library bytes, canonicalized options)
/// where the canonical options string enumerates every FlowOptions /
/// floorplan field that can change the produced FlowMetrics — and
/// deliberately EXCLUDES `num_threads`: it only sets how many evaluations a
/// sweep runs at once, which never changes a result (DESIGN.md §6), and the
/// job wire format does not carry it (a served job runs serially; an old
/// job file's "threads" key is ignored).

#include <cstdint>
#include <string>

#include "flow/flow.hpp"
#include "flow/metrics.hpp"
#include "svc/json.hpp"
#include "util/status.hpp"

namespace cals::svc {

using JobId = std::uint64_t;

enum class DesignFormat : std::uint8_t { kPla, kBlif };
const char* design_format_name(DesignFormat format);

/// queued -> running -> done | failed | cancelled. Cancellation reaches
/// running jobs cooperatively (a fired CancelToken unwinds the flow at the
/// next phase/iteration boundary — DESIGN.md §14); a retryable failure
/// moves a running job back to queued until its attempt cap.
enum class JobState : std::uint8_t { kQueued, kRunning, kDone, kFailed, kCancelled };
const char* job_state_name(JobState state);

struct JobSpec {
  std::string name = "job";            ///< human label (reports, spool files)
  DesignFormat format = DesignFormat::kPla;
  std::string design_text;             ///< PLA or BLIF source, verbatim
  std::string genlib_text;             ///< empty = the built-in corelib
  bool sis = false;                    ///< divisor extraction (PLA front end only)
  bool auto_k = false;                 ///< run the Fig. 3 K schedule instead of options.K
  std::uint32_t rows = 0;              ///< floorplan rows; 0 = size for `util`
  double util = 0.6;                   ///< target utilization when rows == 0
  std::int32_t priority = 0;           ///< higher runs first; FIFO within a level
  FlowOptions options;                 ///< K, partition, objective, guardrails, ...
  // ---- serving-layer robustness knobs (DESIGN.md §14) ----------------------
  // Scheduling policy, not result-determining: all three cross the wire but
  // are excluded from the content keys (canonical_job_options enumerates its
  // fields explicitly), so a retried or deadline-bounded job still shares
  // cache entries with its plain twin.
  std::uint32_t max_attempts = 1;  ///< execution-attempt cap (1 = no retry);
                                   ///< the service default can raise it
  double deadline_s = 0.0;         ///< per-attempt execution deadline; 0 = none
  std::uint32_t attempt_base = 0;  ///< attempts already consumed before this
                                   ///< admission (crash-orphan recovery)
};

/// Terminal result of a job: the service-level Status plus the metrics of
/// the produced run (partial when the status is non-OK but phases finished;
/// see FlowResult). `cache_hit` marks a result served from the persistent
/// cache, `coalesced` one copied from an identical in-flight submission —
/// either way no flow was executed for this record.
struct JobOutcome {
  Status status;
  FlowMetrics metrics;
  bool cache_hit = false;
  bool coalesced = false;
  /// Served from a precompiled dataset blob (store/): the flow ran, but
  /// parse/validate/placement/match-db build were all skipped. Provenance
  /// only — metrics are bit-identical to the text-spec path.
  bool dataset = false;
  double queue_seconds = 0.0;  ///< submit -> dispatch
  double exec_seconds = 0.0;   ///< dispatch -> terminal (0 for coalesced jobs)
  /// Execution attempts consumed (incl. crash-orphan attempts carried via
  /// JobSpec::attempt_base). 0 = nothing ever dispatched (coalesced /
  /// cancelled-while-queued records).
  std::uint32_t attempts = 0;
  /// True when a retryable failure burned through the attempt cap — the
  /// serve layer's quarantine trigger.
  bool retries_exhausted = false;
};

/// Everything the service knows about one submission. Snapshot semantics:
/// FlowService hands out copies, never references into its tables.
struct JobRecord {
  JobId id = 0;
  std::string name;
  std::int32_t priority = 0;
  JobState state = JobState::kQueued;
  std::string cache_key;       ///< 16 hex chars, see job_cache_key()
  std::string dataset_key;     ///< 16 hex chars, see job_keys().dataset_key
  /// 1-based dispatch order (0 = never dispatched). Tests and the bench use
  /// it to assert priority/FIFO ordering and that cancelled / coalesced
  /// jobs never reached a dispatcher.
  std::uint64_t run_sequence = 0;
  JobOutcome outcome;          ///< meaningful once `state` is terminal
};

inline bool job_state_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// FNV-1a 64 over `text`, continuing from `seed` so multi-part keys chain.
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t seed = 14695981039346656037ull);

/// The canonical result-determining option string: every FlowOptions,
/// floorplan and front-end field that can change FlowMetrics, in a fixed
/// order with exact (%.17g) doubles. Excludes num_threads (bit-identical by
/// contract) and on_error (changes error reporting, not results).
std::string canonical_job_options(const JobSpec& spec);

/// The persistent cache key: 16 lowercase hex chars of fnv1a64 chained over
/// design bytes, library bytes ("corelib" when empty) and
/// canonical_job_options().
std::string job_cache_key(const JobSpec& spec);

/// The subset of canonical_job_options() that determines the *context* a job
/// runs against — the compact network, floorplan, initial placement and
/// {partition, metric} match database — and nothing evaluation-only (K,
/// objective, guardrails, router knobs...). Every spec that shares a
/// dataset_key can be served from one precompiled blob. Note the service
/// builds DesignContexts with default PlaceOptions, so spec.options.place is
/// deliberately absent.
std::string canonical_dataset_options(const JobSpec& spec);

/// Both content keys from ONE streaming FNV pass over the design and library
/// bytes: the shared prefix (design \x1f library \x1f) is hashed once into a
/// single state, then forked per key for the options suffix — no
/// concatenated copies, no second scan of a multi-megabyte design.
/// `cache_key` is byte-identical to job_cache_key().
struct JobKeys {
  std::string cache_key;    ///< full options — the PR 5 result-cache key
  std::string dataset_key;  ///< context options only — the blob key
};
JobKeys job_keys(const JobSpec& spec);

// ---- wire formats ----------------------------------------------------------

/// JobSpec <-> flat JSON (the spool job-file format; see DESIGN.md §10).
std::string job_spec_to_json(const JobSpec& spec);
Result<JobSpec> job_spec_from_json(std::string_view text);

/// FlowMetrics fields into/out of a flat JSON object, prefixed "m_". The
/// round-trip is exact (doubles via %.17g), which is what lets the result
/// cache promise bit-identical metrics on a warm hit.
void append_metrics_fields(JsonObjectWriter& writer, const FlowMetrics& metrics);
FlowMetrics metrics_from_json(const JsonObject& obj);

/// JobOutcome (status + metrics + provenance flags) as a flat JSON object —
/// the cache-entry and spool-result payload.
std::string job_outcome_to_json(const JobOutcome& outcome);
Result<JobOutcome> job_outcome_from_json(std::string_view text);

/// Machine-stable ErrorCode spelling for the wire formats ("parse_error",
/// not the human "parse error" of error_code_name()).
const char* error_code_token(ErrorCode code);
bool error_code_from_token(const std::string& token, ErrorCode& out);

}  // namespace cals::svc
