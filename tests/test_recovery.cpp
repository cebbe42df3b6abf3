/// Tests for the crash-safe serving layer (DESIGN.md §14): cooperative
/// cancellation + deadlines (CancelToken threaded through the flow phases),
/// retry with exponential backoff, the write-ahead job journal, crash
/// recovery (orphan re-enqueue, exactly-once republish, poison quarantine)
/// and the stale-tmp sweep — plus the pin that a default-options flow stays
/// bit-identical to the seed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "sop/pla_io.hpp"
#include "svc/job.hpp"
#include "svc/journal.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"
#include "svc/spool.hpp"
#include "util/cancel.hpp"
#include "util/faults.hpp"
#include "util/io.hpp"
#include "util/obs.hpp"
#include "workloads/plagen.hpp"
#include "workloads/presets.hpp"

namespace cals::svc {
namespace {

namespace fs = std::filesystem;

/// A fresh directory under the test temp root, removed on destruction.
struct TempDir {
  explicit TempDir(const char* tag) {
    static std::atomic<std::uint64_t> counter{0};
    path = fs::path(::testing::TempDir()) /
           (std::string("cals_rec_") + tag + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

JobSpec tiny_job(double k = 0.05) {
  JobSpec spec;
  spec.name = "tiny";
  spec.format = DesignFormat::kPla;
  spec.design_text = write_pla_string(workloads::spla_like(0.05));
  spec.options.K = k;
  spec.options.on_error = ErrorPolicy::kBestEffort;
  return spec;
}

void expect_metrics_identical(const FlowMetrics& a, const FlowMetrics& b) {
  EXPECT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.cell_area_um2, b.cell_area_um2);
  EXPECT_EQ(a.routing_violations, b.routing_violations);
  EXPECT_EQ(a.wirelength_um, b.wirelength_um);
  EXPECT_EQ(a.hpwl_um, b.hpwl_um);
  EXPECT_EQ(a.critical_path_ns, b.critical_path_ns);
  EXPECT_EQ(a.crit_start, b.crit_start);
  EXPECT_EQ(a.crit_end, b.crit_end);
}

// ---- CancelToken -----------------------------------------------------------

TEST(CancelToken, FirstCauseWinsAndCheckPromotesDeadlines) {
  CancelToken token;
  EXPECT_EQ(token.check(), CancelCause::kNone);
  EXPECT_FALSE(token.fired());
  token.cancel();
  token.fire_deadline();  // too late: first cause wins
  EXPECT_EQ(token.check(), CancelCause::kCancelled);

  CancelToken expired;
  expired.set_deadline_after(-0.001);  // already in the past
  EXPECT_TRUE(expired.has_deadline());
  EXPECT_EQ(expired.check(), CancelCause::kDeadlineExceeded);

  CancelToken future;
  future.set_deadline_after(3600.0);
  EXPECT_EQ(future.check(), CancelCause::kNone);
}

TEST(CancelToken, CancelPointThrowsTypedErrorAndIgnoresNull) {
  EXPECT_NO_THROW(cancel_point(nullptr));
  CancelToken token;
  EXPECT_NO_THROW(cancel_point(&token));
  token.cancel();
  try {
    cancel_point(&token);
    FAIL() << "cancel_point must throw on a fired token";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cause(), CancelCause::kCancelled);
  }
}

// ---- cooperative cancellation through the flow ----------------------------

TEST(FlowCancel, UnfiredTokenIsBitIdenticalToNoToken) {
  // The pin ISSUE.md demands: threading the token through mapper / placer /
  // router / STA must not change a single metric when it never fires.
  const JobOutcome baseline = run_flow_job(tiny_job());
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.to_string();

  CancelToken token;
  JobSpec spec = tiny_job();
  spec.options.cancel = &token;
  const JobOutcome with_token = run_flow_job(spec);
  ASSERT_TRUE(with_token.status.ok()) << with_token.status.to_string();
  expect_metrics_identical(with_token.metrics, baseline.metrics);
}

TEST(FlowCancel, PreCancelledTokenUnwindsWithTypedStatus) {
  CancelToken token;
  token.cancel();
  JobSpec spec = tiny_job();
  spec.options.cancel = &token;
  const JobOutcome outcome = run_flow_job(spec);
  EXPECT_EQ(outcome.status.code(), ErrorCode::kCancelled);
}

TEST(FlowCancel, ExpiredDeadlineUnwindsAsDeadlineExceeded) {
  CancelToken token;
  token.set_deadline_after(-0.001);
  JobSpec spec = tiny_job();
  spec.options.cancel = &token;
  const JobOutcome outcome = run_flow_job(spec);
  EXPECT_EQ(outcome.status.code(), ErrorCode::kDeadlineExceeded);
}

TEST(FlowCancel, PreFiredTokenStopsBeforeTheBasePlacement) {
  // A text job's token reaches global_place in the context constructor, so
  // a fired token stops it at its first bisection.
  CancelToken token;
  token.cancel();
  JobSpec spec = tiny_job();
  spec.options.cancel = &token;
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  const JobOutcome outcome = run_flow_job(spec);
  obs::set_enabled(false);
  EXPECT_EQ(outcome.status.code(), ErrorCode::kCancelled) << outcome.status.to_string();
  EXPECT_EQ(obs::Registry::instance().counter("place.bisections").value(), 0u);
}

// ---- service: running cancel, deadlines, retry ----------------------------

TEST(SvcCancel, RunningJobCancelsCooperatively) {
  // Stall the place phase long enough to observe kRunning, then cancel; the
  // flow unwinds at the next checkpoint with the typed status.
  faults::reset();
  faults::FaultSpec delay;
  delay.action = faults::Action::kDelay;
  delay.delay_ms = 400;
  delay.count = 1;
  faults::arm("flow.place", delay);

  FlowService service{ServiceOptions{}};
  const JobId id = *service.submit(tiny_job());
  for (int i = 0; i < 400; ++i) {
    const std::optional<JobRecord> record = service.snapshot(id);
    ASSERT_TRUE(record.has_value());
    if (record->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.snapshot(id)->state, JobState::kRunning);
  EXPECT_TRUE(service.cancel(id));
  const JobRecord record = service.wait(id);
  faults::reset();
  EXPECT_EQ(record.state, JobState::kCancelled);
  EXPECT_EQ(record.outcome.status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_FALSE(record.outcome.retries_exhausted) << "cancel never retries";
}

TEST(SvcCancel, CancelRunningFiresEveryInFlightToken) {
  faults::reset();
  faults::FaultSpec delay;
  delay.action = faults::Action::kDelay;
  delay.delay_ms = 400;
  delay.count = 1;
  faults::arm("flow.place", delay);

  FlowService service{ServiceOptions{}};
  const JobId id = *service.submit(tiny_job());
  for (int i = 0; i < 400; ++i) {
    if (service.snapshot(id)->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.cancel_running(), 1u);
  EXPECT_EQ(service.wait(id).state, JobState::kCancelled);
  faults::reset();
  EXPECT_EQ(service.cancel_running(), 0u) << "nothing left to fire";
}

TEST(SvcDeadline, PerJobDeadlineCancelsMidFlow) {
  // The place phase sleeps past a 50 ms deadline; the watchdog (or the
  // token's own self-check at the next checkpoint) fires it.
  faults::reset();
  faults::FaultSpec delay;
  delay.action = faults::Action::kDelay;
  delay.delay_ms = 250;
  delay.count = 1;
  faults::arm("flow.place", delay);

  FlowService service{ServiceOptions{}};
  JobSpec spec = tiny_job();
  spec.deadline_s = 0.05;
  const JobRecord record = service.wait(*service.submit(spec));
  faults::reset();
  EXPECT_EQ(record.state, JobState::kFailed) << "deadline is a failure, not a cancel";
  EXPECT_EQ(record.outcome.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(SvcDeadline, ServiceDefaultDeadlineApplies) {
  faults::reset();
  faults::FaultSpec delay;
  delay.action = faults::Action::kDelay;
  delay.delay_ms = 250;
  delay.count = 1;
  faults::arm("flow.route", delay);

  ServiceOptions options;
  options.default_deadline_s = 0.05;
  FlowService service(options);
  const JobRecord record = service.wait(*service.submit(tiny_job()));
  faults::reset();
  EXPECT_EQ(record.outcome.status.code(), ErrorCode::kDeadlineExceeded);
}

TEST(SvcRetry, RetryableFailureRetriesWithBackoffAndSucceeds) {
  faults::reset();
  faults::FaultSpec spec;
  spec.action = faults::Action::kThrow;
  spec.count = 1;  // poison exactly the first attempt
  faults::arm("svc.dispatch", spec);

  ServiceOptions options;
  options.default_max_attempts = 3;
  options.retry_backoff_ms = 1.0;
  options.retry_backoff_max_ms = 4.0;
  FlowService service(options);
  const JobRecord record = service.wait(*service.submit(tiny_job()));
  faults::reset();
  ASSERT_EQ(record.state, JobState::kDone);
  EXPECT_EQ(record.outcome.attempts, 2u);
  EXPECT_FALSE(record.outcome.retries_exhausted);
  const FlowService::Stats stats = service.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.done, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(SvcRetry, ExhaustedAttemptsFailWithProvenance) {
  faults::reset();
  faults::FaultSpec spec;
  spec.action = faults::Action::kThrow;
  spec.count = 0;  // every attempt fails
  faults::arm("svc.dispatch", spec);

  ServiceOptions options;
  options.retry_backoff_ms = 1.0;
  options.retry_backoff_max_ms = 4.0;
  FlowService service(options);
  JobSpec job = tiny_job();
  job.max_attempts = 2;  // per-job cap overrides the service default of 1
  const JobRecord record = service.wait(*service.submit(job));
  faults::reset();
  EXPECT_EQ(record.state, JobState::kFailed);
  EXPECT_EQ(record.outcome.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(record.outcome.attempts, 2u);
  EXPECT_TRUE(record.outcome.retries_exhausted);
  EXPECT_EQ(service.stats().retries, 1u);
}

TEST(SvcRetry, NonRetryableFailuresNeverRetry) {
  ServiceOptions options;
  options.default_max_attempts = 3;
  FlowService service(options);
  JobSpec bad = tiny_job();
  bad.design_text = ".i banana\n";  // parse error: deterministic, not retryable
  const JobRecord record = service.wait(*service.submit(bad));
  EXPECT_EQ(record.state, JobState::kFailed);
  EXPECT_EQ(record.outcome.status.code(), ErrorCode::kParseError);
  EXPECT_EQ(record.outcome.attempts, 1u);
  EXPECT_EQ(service.stats().retries, 0u);
}

TEST(SvcRetry, BackoffIsDeterministicBoundedAndGrows) {
  const double first = retry_backoff_delay_ms(250.0, 10000.0, 1, 42);
  EXPECT_EQ(first, retry_backoff_delay_ms(250.0, 10000.0, 1, 42));
  EXPECT_GE(first, 125.0);  // jitter floor: half the base
  EXPECT_LT(first, 250.0);  // jitter ceiling: the full base
  const double second = retry_backoff_delay_ms(250.0, 10000.0, 2, 42);
  EXPECT_GE(second, 250.0);
  EXPECT_LT(second, 500.0);
  // Deep attempts saturate at the cap (times jitter), never overflow.
  const double deep = retry_backoff_delay_ms(250.0, 10000.0, 40, 42);
  EXPECT_GE(deep, 5000.0);
  EXPECT_LT(deep, 10000.0);
  // Different salts decorrelate the jitter.
  EXPECT_NE(retry_backoff_delay_ms(250.0, 10000.0, 1, 1),
            retry_backoff_delay_ms(250.0, 10000.0, 1, 2));
}

// ---- journal ---------------------------------------------------------------

TEST(Journal, FoldsEventsAndSurvivesReopen) {
  TempDir dir("journal");
  {
    JobJournal journal(dir.path);
    ASSERT_TRUE(journal.usable());
    journal.record_accepted("job-a", 0);
    journal.record_dispatched("job-a", 1);
    journal.record_accepted("job-b", 2);
    journal.record_terminal("job-c", 1, JobState::kDone, R"({"x": 1})");
    journal.record_accepted("job-d", 0);
    journal.record_published("job-d");
    EXPECT_EQ(journal.errors(), 0u);
  }
  JobJournal reopened(dir.path);
  const std::map<std::string, JournalJobState> live = reopened.snapshot();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live.at("job-a").last, JournalEvent::kDispatched);
  EXPECT_EQ(live.at("job-a").attempts, 1u);
  EXPECT_EQ(live.at("job-b").last, JournalEvent::kAccepted);
  EXPECT_EQ(live.at("job-b").attempts, 2u);
  EXPECT_EQ(live.at("job-c").last, JournalEvent::kTerminal);
  EXPECT_EQ(live.at("job-c").state, JobState::kDone);
  EXPECT_EQ(live.at("job-c").payload, R"({"x": 1})");
  EXPECT_EQ(live.count("job-d"), 0u) << "published stems are dead";
}

TEST(Journal, TornFinalLineIsSkippedOnReplay) {
  TempDir dir("torn");
  {
    JobJournal journal(dir.path);
    journal.record_accepted("survivor", 0);
  }
  {
    // Simulate a crash mid-append: a half-written line with no newline.
    std::ofstream out(dir.path / "journal.jsonl", std::ios::app);
    out << R"({"stem": "torn", "event": "dis)";
  }
  JobJournal reopened(dir.path);
  const auto live = reopened.snapshot();
  EXPECT_EQ(live.size(), 1u);
  EXPECT_EQ(live.count("survivor"), 1u);
}

TEST(Journal, CompactionPreservesLiveStateExactly) {
  TempDir dir("compact");
  JobJournal journal(dir.path);
  journal.record_accepted("queued", 0);
  journal.record_dispatched("orphan", 2);
  journal.record_terminal("finished", 1, JobState::kFailed, R"({"boom": true})");
  journal.record_accepted("gone", 0);
  journal.record_published("gone");
  const auto before = journal.snapshot();
  journal.compact();
  JobJournal reopened(dir.path);
  const auto after = reopened.snapshot();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [stem, job] : before) {
    ASSERT_EQ(after.count(stem), 1u) << stem;
    EXPECT_EQ(after.at(stem).attempts, job.attempts) << stem;
    if (job.last == JournalEvent::kTerminal) {
      EXPECT_EQ(after.at(stem).last, JournalEvent::kTerminal);
      EXPECT_EQ(after.at(stem).state, job.state);
      EXPECT_EQ(after.at(stem).payload, job.payload);
    }
  }
}

TEST(Journal, WriteFaultDegradesWithoutThrowing) {
  TempDir dir("fault");
  JobJournal journal(dir.path);
  faults::reset();
  faults::FaultSpec spec;
  spec.action = faults::Action::kFail;
  spec.count = 1;
  faults::arm("svc.journal", spec);
  journal.record_accepted("degraded", 0);  // swallowed, counted
  faults::reset();
  journal.record_accepted("written", 0);
  EXPECT_EQ(journal.errors(), 1u);
  // The in-memory fold keeps both; only the file lost the first line.
  EXPECT_EQ(journal.snapshot().size(), 2u);
  JobJournal reopened(dir.path);
  EXPECT_EQ(reopened.snapshot().size(), 1u);
  EXPECT_EQ(reopened.snapshot().count("written"), 1u);
}

// ---- crash recovery --------------------------------------------------------

TEST(Recovery, OrphanedDispatchReenqueuesWithAttemptBase) {
  TempDir dir("orphan");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());
  const std::string stem = *spool_submit(*spool, tiny_job());
  JobJournal journal(spool->root / "journal");
  journal.record_accepted(stem, 0);
  journal.record_dispatched(stem, 1);  // ...and then the process died

  RecoveryOptions options;
  options.tmp_min_age_seconds = 0.0;
  const RecoveryReport report = recover_spool(*spool, journal, options);
  EXPECT_EQ(report.orphans, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.republished, 0u);
  ASSERT_EQ(report.attempt_base.count(stem), 1u);
  EXPECT_EQ(report.attempt_base.at(stem), 1u) << "the crashed attempt is consumed";
  EXPECT_TRUE(fs::exists(spool->incoming / (stem + ".json")))
      << "the job file must survive for readmission";

  // Recovery is idempotent: a second replay finds no orphan (the recovered
  // baseline is queued, not dispatched) but still carries the attempt base.
  const RecoveryReport again = recover_spool(*spool, journal, options);
  EXPECT_EQ(again.orphans, 0u);
  EXPECT_EQ(again.attempt_base.at(stem), 1u);
}

TEST(Recovery, PoisonOrphanMovesToQuarantineWithDiagnostic) {
  TempDir dir("poison");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());
  const std::string stem = *spool_submit(*spool, tiny_job());
  JobJournal journal(spool->root / "journal");
  journal.record_dispatched(stem, 3);  // third crash in a row

  RecoveryOptions options;
  options.max_attempts = 3;
  options.tmp_min_age_seconds = 0.0;
  const RecoveryReport report = recover_spool(*spool, journal, options);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.orphans, 0u);
  EXPECT_EQ(report.attempt_base.count(stem), 0u);
  EXPECT_FALSE(fs::exists(spool->incoming / (stem + ".json")));
  EXPECT_TRUE(fs::exists(spool->quarantine / (stem + ".json")));
  Result<std::string> diag =
      read_file_string((spool->quarantine / (stem + ".diag.json")).string());
  ASSERT_TRUE(diag.ok());
  Result<JsonObject> parsed = parse_json_object(diag.value());
  ASSERT_TRUE(parsed.ok()) << diag.value();
  std::uint32_t attempts = 0;
  EXPECT_TRUE(get_u32(*parsed, "attempts", attempts));
  EXPECT_EQ(attempts, 3u);
  // The quarantined stem is resolved: nothing left in the journal, and a
  // rerun of recovery is a no-op.
  EXPECT_EQ(journal.snapshot().count(stem), 0u);
  EXPECT_EQ(recover_spool(*spool, journal, options).quarantined, 0u);
}

TEST(Recovery, TerminalUnpublishedResultRepublishesBitIdentically) {
  TempDir dir("republish");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());
  const std::string stem = *spool_submit(*spool, tiny_job());

  JobRecord record;
  record.id = 9;
  record.name = "tiny";
  record.state = JobState::kDone;
  record.outcome.attempts = 2;
  record.outcome.metrics.num_cells = 77;
  record.outcome.metrics.wirelength_um = 123.5;
  const std::string payload = spool_result_json(record);

  JobJournal journal(spool->root / "journal");
  journal.record_accepted(stem, 0);
  journal.record_dispatched(stem, 1);
  journal.record_terminal(stem, 2, JobState::kDone, payload);
  // Crash here: outcome decided, publish rename lost.

  RecoveryOptions options;
  options.tmp_min_age_seconds = 0.0;
  const RecoveryReport report = recover_spool(*spool, journal, options);
  EXPECT_EQ(report.republished, 1u);
  EXPECT_EQ(report.orphans, 0u);
  EXPECT_EQ(report.attempt_base.count(stem), 0u) << "must NOT re-run the flow";
  const fs::path result = spool_find_result(*spool, stem);
  ASSERT_FALSE(result.empty());
  EXPECT_EQ(result.parent_path(), spool->done);
  Result<std::string> body = read_file_string(result.string());
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value(), payload) << "republish must replay the exact bytes";
  EXPECT_FALSE(fs::exists(spool->incoming / (stem + ".json")))
      << "a published job's incoming file is consumed";
  EXPECT_EQ(recover_spool(*spool, journal, options).republished, 0u);
}

TEST(Recovery, StaleTmpDebrisIsSweptEverywhere) {
  TempDir dir("tmp");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());
  JobJournal journal(spool->root / "journal");
  { std::ofstream(spool->incoming / "half-written.json.tmp") << "{"; }
  { std::ofstream(spool->done / "torn.json.tmp") << "{"; }
  { std::ofstream(spool->flights / "torn.flight.json.tmp") << "{"; }
  { std::ofstream(spool->done / "keep.json") << "{}"; }

  RecoveryOptions options;
  options.tmp_min_age_seconds = 0.0;
  const RecoveryReport report = recover_spool(*spool, journal, options);
  EXPECT_EQ(report.stale_tmp, 3u);
  EXPECT_FALSE(fs::exists(spool->incoming / "half-written.json.tmp"));
  EXPECT_FALSE(fs::exists(spool->done / "torn.json.tmp"));
  EXPECT_TRUE(fs::exists(spool->done / "keep.json"));
}

TEST(Recovery, RemoveStaleTmpFilesHonoursAgeFloor) {
  TempDir dir("age");
  { std::ofstream(dir.path / "fresh.tmp") << "x"; }
  // A generous age floor keeps a just-written tmp (an active writer).
  EXPECT_EQ(remove_stale_tmp_files(dir.path, 3600.0), 0u);
  EXPECT_TRUE(fs::exists(dir.path / "fresh.tmp"));
  EXPECT_EQ(remove_stale_tmp_files(dir.path, 0.0), 1u);
  EXPECT_FALSE(fs::exists(dir.path / "fresh.tmp"));
}

// ---- service + journal end-to-end -----------------------------------------

TEST(Recovery, ServiceJournalsTheFullLifecycle) {
  TempDir dir("lifecycle");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());
  const std::string stem = *spool_submit(*spool, tiny_job());
  JobJournal journal(spool->root / "journal");

  ServiceOptions options;
  options.journal = &journal;
  FlowService service(options);
  Result<JobSpec> spec = spool_load_job(spool->incoming / (stem + ".json"));
  ASSERT_TRUE(spec.ok());
  const JobRecord record = service.wait(*service.submit(std::move(*spec), stem));
  ASSERT_EQ(record.state, JobState::kDone);
  EXPECT_EQ(record.outcome.attempts, 1u);

  // Crash before publish: the journal alone must carry the exact result.
  const auto live = journal.snapshot();
  ASSERT_EQ(live.count(stem), 1u);
  EXPECT_EQ(live.at(stem).last, JournalEvent::kTerminal);
  EXPECT_EQ(live.at(stem).payload, spool_result_json(record));

  RecoveryOptions recovery_options;
  recovery_options.tmp_min_age_seconds = 0.0;
  const RecoveryReport report = recover_spool(*spool, journal, recovery_options);
  EXPECT_EQ(report.republished, 1u);
  const fs::path result = spool_find_result(*spool, stem);
  ASSERT_FALSE(result.empty());
  Result<std::string> body = read_file_string(result.string());
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value(), spool_result_json(record));
  EXPECT_TRUE(journal.snapshot().empty());
}

TEST(Recovery, AttemptBaseCountsTowardTheInProcessCap) {
  // A job that already burned 1 attempt in a previous life gets exactly one
  // more before retries_exhausted — crash attempts and in-process attempts
  // share one budget.
  faults::reset();
  faults::FaultSpec spec;
  spec.action = faults::Action::kThrow;
  spec.count = 0;
  faults::arm("svc.dispatch", spec);

  ServiceOptions options;
  options.default_max_attempts = 2;
  options.retry_backoff_ms = 1.0;
  FlowService service(options);
  JobSpec job = tiny_job();
  job.attempt_base = 1;
  const JobRecord record = service.wait(*service.submit(job));
  faults::reset();
  EXPECT_EQ(record.state, JobState::kFailed);
  EXPECT_EQ(record.outcome.attempts, 2u);
  EXPECT_TRUE(record.outcome.retries_exhausted);
  EXPECT_EQ(service.stats().retries, 0u) << "no retry budget was left in this life";
}

TEST(Recovery, SpecAndOutcomeJsonCarryTheNewFields) {
  JobSpec spec = tiny_job();
  spec.max_attempts = 4;
  spec.deadline_s = 2.5;
  spec.attempt_base = 3;
  Result<JobSpec> back = job_spec_from_json(job_spec_to_json(spec));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->max_attempts, 4u);
  EXPECT_EQ(back->deadline_s, 2.5);
  EXPECT_EQ(back->attempt_base, 3u);
  // Robustness knobs never change results, so they stay out of both keys.
  EXPECT_EQ(job_cache_key(spec), job_cache_key(tiny_job()));

  JobOutcome outcome;
  outcome.attempts = 3;
  outcome.retries_exhausted = true;
  Result<JobOutcome> outcome_back =
      job_outcome_from_json(job_outcome_to_json(outcome));
  ASSERT_TRUE(outcome_back.ok());
  EXPECT_EQ(outcome_back->attempts, 3u);
  EXPECT_TRUE(outcome_back->retries_exhausted);
}

TEST(Recovery, GracefulDrainLeavesEveryJobTerminal) {
  // The SIGTERM path in miniature: stall a running job, fire every in-flight
  // token, shut down cancelling the queue — nothing may be left in limbo.
  faults::reset();
  faults::FaultSpec delay;
  delay.action = faults::Action::kDelay;
  delay.delay_ms = 300;
  delay.count = 1;
  faults::arm("flow.place", delay);

  ServiceOptions options;
  options.max_parallel_jobs = 1;
  options.coalesce_duplicates = false;
  FlowService service(options);
  const JobId running = *service.submit(tiny_job(0.01));
  const JobId queued = *service.submit(tiny_job(0.02));
  for (int i = 0; i < 400; ++i) {
    if (service.snapshot(running)->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.cancel_running();
  service.shutdown(/*cancel_queued=*/true);
  faults::reset();
  for (const JobId id : {running, queued}) {
    const std::optional<JobRecord> record = service.snapshot(id);
    ASSERT_TRUE(record.has_value());
    EXPECT_TRUE(job_state_terminal(record->state)) << "job " << id;
  }
  EXPECT_EQ(service.stats().running, 0u);
  EXPECT_EQ(service.stats().queued, 0u);
}

}  // namespace
}  // namespace cals::svc
