/// Tests for the `cals::svc` batch flow service (DESIGN.md §10): the flat
/// JSON codec, the job model and its content-addressed cache key, the
/// persistent result cache (bit-identical warm hits), the FlowService
/// scheduler (priority/FIFO ordering, admission control, cancellation,
/// drain, duplicate coalescing) and the spool wire protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/baselines.hpp"
#include "sop/pla_io.hpp"
#include "store/dataset_store.hpp"
#include "svc/dataset_pack.hpp"
#include "svc/flight.hpp"
#include "svc/job.hpp"
#include "svc/json.hpp"
#include "svc/result_cache.hpp"
#include "svc/service.hpp"
#include "svc/spool.hpp"
#include "svc/telemetry_http.hpp"
#include "util/faults.hpp"
#include "workloads/plagen.hpp"
#include "workloads/presets.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace cals::svc {
namespace {

namespace fs = std::filesystem;

/// A fresh directory under the test temp root, removed on destruction.
struct TempDir {
  explicit TempDir(const char* tag) {
    static std::atomic<std::uint64_t> counter{0};
    path = fs::path(::testing::TempDir()) /
           (std::string("cals_svc_") + tag + "_" +
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

/// A small-but-real job: enough structure that the flow produces nonzero
/// wirelength/area, small enough that one execution is a few milliseconds.
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
  EXPECT_EQ(a.k_factor, b.k_factor);
  EXPECT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.cell_area_um2, b.cell_area_um2);
  EXPECT_EQ(a.utilization_pct, b.utilization_pct);
  EXPECT_EQ(a.routing_violations, b.routing_violations);
  EXPECT_EQ(a.routable, b.routable);
  EXPECT_EQ(a.wirelength_um, b.wirelength_um);
  EXPECT_EQ(a.hpwl_um, b.hpwl_um);
  EXPECT_EQ(a.critical_path_ns, b.critical_path_ns);
  EXPECT_EQ(a.crit_start, b.crit_start);
  EXPECT_EQ(a.crit_end, b.crit_end);
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.chip_area_um2, b.chip_area_um2);
}

// ---- flat JSON codec ------------------------------------------------------

TEST(SvcJson, WriterRoundTripsEveryKind) {
  JsonObjectWriter w;
  w.field("s", std::string_view("a \"quoted\"\nline"));
  w.field("d", 0.1);
  w.field("u", std::uint64_t{18446744073709551615ull});
  w.field("neg", std::int64_t{-42});
  w.field("yes", true);
  w.field("no", false);
  const std::string text = std::move(w).finish();

  Result<JsonObject> parsed = parse_json_object(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  std::string s;
  double d = 0.0;
  std::uint64_t u = 0;
  std::int32_t neg = 0;
  bool yes = false, no = true;
  EXPECT_TRUE(get_string(*parsed, "s", s));
  EXPECT_EQ(s, "a \"quoted\"\nline");
  EXPECT_TRUE(get_double(*parsed, "d", d));
  EXPECT_EQ(d, 0.1);  // %.17g round-trip is exact, not approximate
  EXPECT_TRUE(get_u64(*parsed, "u", u));
  EXPECT_EQ(u, 18446744073709551615ull);
  EXPECT_TRUE(get_i32(*parsed, "neg", neg));
  EXPECT_EQ(neg, -42);
  EXPECT_TRUE(get_bool(*parsed, "yes", yes));
  EXPECT_TRUE(yes);
  EXPECT_TRUE(get_bool(*parsed, "no", no));
  EXPECT_FALSE(no);
}

TEST(SvcJson, GettersLeaveOutputUntouchedOnMissOrKindMismatch) {
  Result<JsonObject> parsed = parse_json_object(R"({"n": 7})");
  ASSERT_TRUE(parsed.ok());
  std::string s = "unchanged";
  EXPECT_FALSE(get_string(*parsed, "n", s));      // wrong kind
  EXPECT_FALSE(get_string(*parsed, "absent", s)); // missing
  EXPECT_EQ(s, "unchanged");
  std::uint32_t u = 99;
  EXPECT_FALSE(get_u32(*parsed, "absent", u));
  EXPECT_EQ(u, 99u);
}

TEST(SvcJson, ParserRejectsMalformedInputWithProvenance) {
  // Nested objects / arrays are out of scope for the flat wire format.
  EXPECT_FALSE(parse_json_object(R"({"a": {"b": 1}})").ok());
  EXPECT_FALSE(parse_json_object(R"({"a": [1, 2]})").ok());
  EXPECT_FALSE(parse_json_object(R"({"a": 1, "a": 2})").ok());  // dup key
  EXPECT_FALSE(parse_json_object(R"({"a": 1} trailing)").ok());
  EXPECT_FALSE(parse_json_object("{\"a\": 1").ok());            // truncated
  const Status s = parse_json_object("{\n  \"a\": @\n}").status();
  EXPECT_EQ(s.code(), ErrorCode::kParseError);
  EXPECT_NE(s.to_string().find("2:"), std::string::npos) << s.to_string();
}

// ---- job model + cache key ------------------------------------------------

TEST(SvcJob, CacheKeyIsStableAndContentSensitive) {
  const JobSpec base = tiny_job();
  EXPECT_EQ(job_cache_key(base), job_cache_key(base));
  EXPECT_EQ(job_cache_key(base).size(), 16u);

  JobSpec other = base;
  other.design_text += "\n";
  EXPECT_NE(job_cache_key(other), job_cache_key(base));

  other = base;
  other.options.K = 0.25;
  EXPECT_NE(job_cache_key(other), job_cache_key(base));

  other = base;
  other.options.route.max_rrr_iterations += 1;
  EXPECT_NE(job_cache_key(other), job_cache_key(base));

  other = base;
  other.rows = 12;
  EXPECT_NE(job_cache_key(other), job_cache_key(base));
}

TEST(SvcJob, CacheKeyIgnoresBitIdenticalKnobs) {
  // num_threads never changes results (DESIGN.md §6), so a serial and a
  // parallel run must share one cache entry. The job label and error policy
  // don't change results either.
  const JobSpec base = tiny_job();
  JobSpec variant = base;
  variant.options.num_threads = 8;
  variant.options.on_error = ErrorPolicy::kPropagate;
  variant.name = "renamed";
  variant.priority = 7;
  EXPECT_EQ(job_cache_key(variant), job_cache_key(base));
}

TEST(SvcJob, RepairKnobsInCacheKeyOnlyWhenEnabled) {
  // A repair-enabled job is a different computation than its repair-off
  // twin: distinct cache key. But with repair_passes == 0 the window/cell
  // knobs are inert, so varying them must NOT perturb the key (pre-repair
  // cache entries and ledger rows stay addressable).
  const JobSpec base = tiny_job();
  ASSERT_EQ(base.options.repair_passes, 0u);

  JobSpec inert = base;
  inert.options.repair_window = 31;
  inert.options.repair_max_cells = 999;
  EXPECT_EQ(job_cache_key(inert), job_cache_key(base));

  JobSpec on = base;
  on.options.repair_passes = 1;
  EXPECT_NE(job_cache_key(on), job_cache_key(base));

  JobSpec on2 = on;
  on2.options.repair_passes = 2;
  EXPECT_NE(job_cache_key(on2), job_cache_key(on));

  // Once repair is on, the window and cell budget shape the result.
  JobSpec window = on;
  window.options.repair_window = 12;
  EXPECT_NE(job_cache_key(window), job_cache_key(on));
  JobSpec cells = on;
  cells.options.repair_max_cells = 16;
  EXPECT_NE(job_cache_key(cells), job_cache_key(on));
}

TEST(SvcJob, RepairKnobsJsonRoundTrip) {
  JobSpec spec = tiny_job(0.1);
  spec.options.repair_passes = 2;
  spec.options.repair_window = 5;
  spec.options.repair_max_cells = 32;
  Result<JobSpec> back = job_spec_from_json(job_spec_to_json(spec));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->options.repair_passes, 2u);
  EXPECT_EQ(back->options.repair_window, 5u);
  EXPECT_EQ(back->options.repair_max_cells, 32u);
  EXPECT_EQ(job_cache_key(*back), job_cache_key(spec));
}

TEST(SvcJob, SpecJsonRoundTrip) {
  JobSpec spec = tiny_job(0.1);
  spec.name = "round-trip";
  spec.genlib_text = "GATE inv 1 O=!a; PIN * INV 1 999 1 0 1 0\n";
  spec.sis = true;
  spec.auto_k = true;
  spec.rows = 9;
  spec.util = 0.45;
  spec.priority = -3;
  spec.options.partition = PartitionStrategy::kCones;
  spec.options.objective = MapObjective::kDelay;
  spec.options.refine_passes = 2;
  spec.options.max_route_iters = 11;
  spec.options.phase_time_budget_s = 1.5;

  Result<JobSpec> back = job_spec_from_json(job_spec_to_json(spec));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->name, spec.name);
  EXPECT_EQ(back->format, spec.format);
  EXPECT_EQ(back->design_text, spec.design_text);
  EXPECT_EQ(back->genlib_text, spec.genlib_text);
  EXPECT_EQ(back->sis, spec.sis);
  EXPECT_EQ(back->auto_k, spec.auto_k);
  EXPECT_EQ(back->rows, spec.rows);
  EXPECT_EQ(back->util, spec.util);
  EXPECT_EQ(back->priority, spec.priority);
  EXPECT_EQ(back->options.K, spec.options.K);
  EXPECT_EQ(back->options.partition, spec.options.partition);
  EXPECT_EQ(back->options.objective, spec.options.objective);
  EXPECT_EQ(back->options.refine_passes, spec.options.refine_passes);
  EXPECT_EQ(back->options.max_route_iters, spec.options.max_route_iters);
  EXPECT_EQ(back->options.phase_time_budget_s, spec.options.phase_time_budget_s);
  // The decisive test: same cache key on both sides of the wire.
  EXPECT_EQ(job_cache_key(*back), job_cache_key(spec));
}

TEST(SvcJob, SpecJsonRejectsBadInput) {
  EXPECT_FALSE(job_spec_from_json("not json").ok());
  EXPECT_FALSE(job_spec_from_json(R"({"name": "x"})").ok());  // no design
  EXPECT_FALSE(
      job_spec_from_json(R"({"design": ".i 1", "format": "vhdl"})").ok());
  EXPECT_FALSE(
      job_spec_from_json(R"({"design": ".i 1", "util": 1.5})").ok());
  EXPECT_FALSE(job_spec_from_json(R"({"design": ".i 1", "k": -1})").ok());
  EXPECT_FALSE(
      job_spec_from_json(R"({"design": ".i 1", "partition": "best"})").ok());
}

/// `json` (a flat object) with `fields` spliced in ahead of its own keys.
std::string with_fields(const std::string& json, const std::string& fields) {
  return "{" + fields + ", " + json.substr(1);
}

TEST(SvcJob, DecoderRejectsRouterOptionsOutOfRange) {
  // Each value aborted or stalled the grid or the router once it reached
  // them; the decoder now names the field instead.
  const std::pair<const char*, const char*> cases[] = {
      {R"("r_bbox": -40)", "r_bbox"},         {R"("r_present": -5)", "r_present"},
      {R"("r_history": -2)", "r_history"},    {R"("g_cell_um": -1)", "g_cell_um"},
      {R"("g_cell_um": 0)", "g_cell_um"},     {R"("g_cap": 0)", "g_cap"},
      {R"("g_cap": -1)", "g_cap"},            {R"("g_m1": -3)", "g_m1"},
      {R"("g_m1": 1.5)", "g_m1"},
  };
  const std::string json = R"({"design": ".i 1"})";
  for (const auto& [field, name] : cases) {
    const Result<JobSpec> decoded = job_spec_from_json(with_fields(json, field));
    ASSERT_FALSE(decoded.ok()) << field;
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError) << field;
    EXPECT_NE(decoded.status().message().find(name), std::string::npos)
        << decoded.status().to_string();
  }
  // The edges of each range still decode.
  const Result<JobSpec> edges = job_spec_from_json(with_fields(
      json, R"("r_bbox": 0, "r_present": 0, "r_history": 0, "g_m1": 0, "g_cap": 0.5)"));
  ASSERT_TRUE(edges.ok()) << edges.status().to_string();
  EXPECT_EQ(edges->options.route.bbox_margin, 0);
  EXPECT_EQ(edges->options.rgrid.m1_fraction, 0.0);
}

TEST(SvcRunJob, RoutingGridOverTheLimitFailsBeforeRouting) {
  // g_cell_um = 0.01 um on this die asks for a grid of thousands of gcells a
  // side, which the router would take minutes to clear, or abort on.
  JobSpec spec = tiny_job();
  spec.options.rgrid.gcell_um = 0.01;
  const JobOutcome outcome = run_flow_job(spec);
  EXPECT_EQ(outcome.status.code(), ErrorCode::kParseError);
  EXPECT_NE(outcome.status.message().find("g_cell_um"), std::string::npos)
      << outcome.status.to_string();
}

TEST(SvcJob, FilesWithRetiredThreadFieldsStillDecode) {
  // Job files, outcomes and flight records written before services ran each
  // job on one thread carry "threads", "m_threads_used", "thread_slice" and
  // "threads_used". They still decode, to what the same file without them
  // decodes to.
  const JobSpec spec = tiny_job(0.1);
  const std::string job = job_spec_to_json(spec);
  const Result<JobSpec> old_job = job_spec_from_json(with_fields(job, R"("threads": 8)"));
  ASSERT_TRUE(old_job.ok()) << old_job.status().to_string();
  EXPECT_EQ(job_cache_key(*old_job), job_cache_key(*job_spec_from_json(job)));
  EXPECT_EQ(job_cache_key(*old_job), job_cache_key(spec));

  JobOutcome outcome;
  outcome.metrics.num_cells = 123;
  outcome.metrics.wirelength_um = 4567.0625;
  const std::string text = job_outcome_to_json(outcome);
  const Result<JobOutcome> old_outcome =
      job_outcome_from_json(with_fields(text, R"("m_threads_used": 4)"));
  ASSERT_TRUE(old_outcome.ok()) << old_outcome.status().to_string();
  EXPECT_EQ(job_outcome_to_json(*old_outcome), text);

  FlightRecord flight;
  flight.id = 7;
  flight.name = "old";
  flight.state = "done";
  flight.k_factor = 0.05;
  const std::string record = flight_record_to_json(flight);
  const Result<FlightRecord> old_flight = flight_record_from_json(
      with_fields(record, R"("thread_slice": 4, "threads_used": 2)"));
  ASSERT_TRUE(old_flight.ok()) << old_flight.status().to_string();
  EXPECT_EQ(flight_record_to_json(*old_flight), record);
}

TEST(SvcJob, OutcomeJsonRoundTripIsExact) {
  JobOutcome outcome;
  outcome.status = Status::infeasible("no fit at 9 rows");
  outcome.metrics.k_factor = 0.1;
  outcome.metrics.num_cells = 123;
  outcome.metrics.wirelength_um = 4567.0625;
  outcome.metrics.hpwl_um = 1.0 / 3.0;  // not representable in short decimal
  outcome.metrics.critical_path_ns = 2.7182818284590452;
  outcome.metrics.routable = true;
  outcome.metrics.routing_violations = 0;
  outcome.metrics.crit_start = "g42";
  outcome.metrics.crit_end = "out_7";
  outcome.queue_seconds = 0.25;
  outcome.exec_seconds = 1.75;

  Result<JobOutcome> back = job_outcome_from_json(job_outcome_to_json(outcome));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->status.code(), ErrorCode::kInfeasible);
  EXPECT_EQ(back->status.message(), "no fit at 9 rows");
  EXPECT_EQ(back->queue_seconds, outcome.queue_seconds);
  EXPECT_EQ(back->exec_seconds, outcome.exec_seconds);
  expect_metrics_identical(back->metrics, outcome.metrics);
}

TEST(SvcJob, ErrorCodeTokensRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kParseError, ErrorCode::kInvalidNetwork,
        ErrorCode::kInfeasible, ErrorCode::kBudgetExceeded, ErrorCode::kInternal}) {
    ErrorCode back = ErrorCode::kOk;
    ASSERT_TRUE(error_code_from_token(error_code_token(code), back));
    EXPECT_EQ(back, code);
  }
  ErrorCode unused;
  EXPECT_FALSE(error_code_from_token("no_such_code", unused));
}

// ---- run_flow_job ----------------------------------------------------------

TEST(SvcRunJob, ExecutesAndReportsMetrics) {
  const JobOutcome outcome = run_flow_job(tiny_job());
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.to_string();
  EXPECT_GT(outcome.metrics.num_cells, 0u);
  EXPECT_GT(outcome.metrics.wirelength_um, 0.0);
  EXPECT_GT(outcome.metrics.num_rows, 0u);
}

TEST(SvcRunJob, ParseFailureComesBackAsStatus) {
  JobSpec bad = tiny_job();
  bad.design_text = ".i banana\n";
  const JobOutcome outcome = run_flow_job(bad);
  EXPECT_EQ(outcome.status.code(), ErrorCode::kParseError);
}

TEST(SvcRunJob, SisJobUsesTheCalibratedExtraction) {
  // A `sis` job maps the network cals_flow --sis and the paper tables build:
  // the calibrated extraction, not the default ExtractOptions.
  const Pla pla = workloads::spla_like(0.05);
  JobSpec spec = tiny_job();
  spec.design_text = write_pla_string(pla);
  spec.sis = true;
  const Result<JobDesign> design = build_job_design(spec);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  const BaseNetwork expected =
      synthesize_sis_mode(pla, nullptr, workloads::sis_extract_options());
  ASSERT_NE(synthesize_sis_mode(pla).num_base_gates(), expected.num_base_gates())
      << "the two extraction settings must differ on this design";
  EXPECT_EQ(design->net.num_base_gates(), expected.num_base_gates());
  EXPECT_EQ(design->net.num_nodes(), expected.num_nodes());
}

// ---- result cache ----------------------------------------------------------

TEST(SvcCache, StoreThenLookupIsBitIdentical) {
  TempDir dir("cache");
  ResultCache cache(dir.path.string());
  const JobOutcome cold = run_flow_job(tiny_job());
  ASSERT_TRUE(cold.status.ok());
  const std::string key = job_cache_key(tiny_job());
  cache.store(key, cold);

  const std::optional<JobOutcome> warm = cache.lookup(key);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->cache_hit);
  expect_metrics_identical(warm->metrics, cold.metrics);
  EXPECT_EQ(cache.stores(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(SvcCache, MissesUnknownKeyAndSkipsFailedOutcomes) {
  TempDir dir("cache");
  ResultCache cache(dir.path.string());
  EXPECT_FALSE(cache.lookup("0000000000000000").has_value());
  EXPECT_EQ(cache.misses(), 1u);

  JobOutcome failed;
  failed.status = Status::internal("boom");
  cache.store("0000000000000000", failed);  // non-OK results are not cached
  EXPECT_EQ(cache.stores(), 0u);
  EXPECT_FALSE(cache.lookup("0000000000000000").has_value());
}

TEST(SvcCache, CorruptEntryDegradesToMiss) {
  TempDir dir("cache");
  ResultCache cache(dir.path.string());
  {
    std::ofstream out(dir.path / "deadbeefdeadbeef.json");
    out << "{ this is not json";
  }
  EXPECT_FALSE(cache.lookup("deadbeefdeadbeef").has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SvcCache, CacheFaultNeverFailsTheCaller) {
  TempDir dir("cache");
  ResultCache cache(dir.path.string());
  faults::reset();
  faults::FaultSpec spec;
  spec.action = faults::Action::kThrow;
  spec.count = 2;  // fault the lookup AND the store
  faults::arm("svc.cache", spec);
  EXPECT_FALSE(cache.lookup("0123456789abcdef").has_value());  // degraded miss
  JobOutcome ok;
  cache.store("0123456789abcdef", ok);  // degraded no-op, no throw
  faults::reset();
  EXPECT_FALSE(cache.lookup("0123456789abcdef").has_value());
  EXPECT_EQ(cache.stores(), 0u);
}

// ---- FlowService scheduler -------------------------------------------------

TEST(SvcService, PriorityThenFifoOrdering) {
  ServiceOptions options;
  options.max_parallel_jobs = 1;  // serialize so run_sequence is the order
  options.start_paused = true;
  options.coalesce_duplicates = false;
  FlowService service(options);

  const JobId low = *service.submit(tiny_job(0.01));
  const JobId high_a = *service.submit([] {
    JobSpec s = tiny_job(0.02);
    s.priority = 5;
    return s;
  }());
  const JobId high_b = *service.submit([] {
    JobSpec s = tiny_job(0.03);
    s.priority = 5;
    return s;
  }());
  const JobId mid = *service.submit([] {
    JobSpec s = tiny_job(0.04);
    s.priority = 2;
    return s;
  }());
  service.resume();
  service.drain();

  EXPECT_EQ(service.wait(high_a).run_sequence, 1u);  // highest, submitted first
  EXPECT_EQ(service.wait(high_b).run_sequence, 2u);  // FIFO within a level
  EXPECT_EQ(service.wait(mid).run_sequence, 3u);
  EXPECT_EQ(service.wait(low).run_sequence, 4u);
  for (const JobId id : {low, high_a, high_b, mid})
    EXPECT_EQ(service.wait(id).state, JobState::kDone);
}

TEST(SvcService, AdmissionControlRejectsWhenFull) {
  ServiceOptions options;
  options.queue_capacity = 2;
  options.start_paused = true;
  options.coalesce_duplicates = false;
  FlowService service(options);

  ASSERT_TRUE(service.submit(tiny_job(0.01)).ok());
  ASSERT_TRUE(service.submit(tiny_job(0.02)).ok());
  const Result<JobId> rejected = service.submit(tiny_job(0.03));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kBudgetExceeded);
  // The diagnostics name the queue state so operators can act on it.
  EXPECT_NE(rejected.status().message().find("capacity"), std::string::npos)
      << rejected.status().message();
  EXPECT_EQ(service.stats().rejected, 1u);

  service.resume();
  service.drain();
  EXPECT_EQ(service.stats().done, 2u);
  // Capacity frees up once the queue drains.
  EXPECT_TRUE(service.submit(tiny_job(0.03)).ok());
  service.drain();
  EXPECT_EQ(service.stats().done, 3u);
}

TEST(SvcService, CancelQueuedButNotTerminal) {
  ServiceOptions options;
  options.start_paused = true;
  FlowService service(options);
  const JobId id = *service.submit(tiny_job());
  EXPECT_TRUE(service.cancel(id));
  EXPECT_FALSE(service.cancel(id));  // already terminal
  EXPECT_FALSE(service.cancel(9999));  // unknown
  const JobRecord record = service.wait(id);
  EXPECT_EQ(record.state, JobState::kCancelled);
  EXPECT_EQ(record.run_sequence, 0u);  // never reached a dispatcher
  service.resume();
  service.drain();
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.stats().flow_executions, 0u);
}

TEST(SvcService, DrainCompletesEverything) {
  FlowService service{ServiceOptions{}};
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(*service.submit(tiny_job(0.01 * (i + 1))));
  service.drain();
  const FlowService::Stats stats = service.stats();
  EXPECT_EQ(stats.done, 4u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  for (const JobId id : ids) {
    const JobRecord record = service.wait(id);
    EXPECT_EQ(record.state, JobState::kDone);
    EXPECT_TRUE(record.outcome.status.ok());
    EXPECT_GT(record.outcome.metrics.num_cells, 0u);
  }
}

TEST(SvcService, ShutdownCancelsQueuedAndRejectsNewWork) {
  ServiceOptions options;
  options.start_paused = true;
  FlowService service(options);
  const JobId id = *service.submit(tiny_job());
  service.shutdown(/*cancel_queued=*/true);
  EXPECT_EQ(service.wait(id).state, JobState::kCancelled);
  const Result<JobId> late = service.submit(tiny_job());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), ErrorCode::kInternal);
}

TEST(SvcService, WarmCacheHitIsBitIdenticalAndSkipsTheFlow) {
  TempDir dir("cache");
  ResultCache cache(dir.path.string());
  FlowMetrics cold_metrics;
  {
    ServiceOptions options;
    options.cache = &cache;
    FlowService service(options);
    const JobRecord record = service.wait(*service.submit(tiny_job()));
    ASSERT_EQ(record.state, JobState::kDone);
    EXPECT_FALSE(record.outcome.cache_hit);
    cold_metrics = record.outcome.metrics;
    EXPECT_EQ(service.stats().flow_executions, 1u);
  }
  {
    // A brand-new service sharing only the on-disk cache directory.
    ServiceOptions options;
    options.cache = &cache;
    FlowService service(options);
    const JobRecord record = service.wait(*service.submit(tiny_job()));
    ASSERT_EQ(record.state, JobState::kDone);
    EXPECT_TRUE(record.outcome.cache_hit);
    EXPECT_EQ(service.stats().flow_executions, 0u);
    EXPECT_EQ(service.stats().cache_hits, 1u);
    expect_metrics_identical(record.outcome.metrics, cold_metrics);
  }
}

TEST(SvcService, ConcurrentDuplicatesCoalesceToOneExecution) {
  ServiceOptions options;
  options.start_paused = true;  // both submissions land before dispatch
  FlowService service(options);
  const JobId primary = *service.submit(tiny_job());
  const JobId follower = *service.submit(tiny_job());
  EXPECT_NE(primary, follower);
  service.resume();

  const JobRecord a = service.wait(primary);
  const JobRecord b = service.wait(follower);
  EXPECT_EQ(a.state, JobState::kDone);
  EXPECT_EQ(b.state, JobState::kDone);
  EXPECT_FALSE(a.outcome.coalesced);
  EXPECT_TRUE(b.outcome.coalesced);
  EXPECT_EQ(b.run_sequence, 0u);  // the follower never dispatched
  expect_metrics_identical(a.outcome.metrics, b.outcome.metrics);
  const FlowService::Stats stats = service.stats();
  EXPECT_EQ(stats.flow_executions, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.done, 2u);
}

TEST(SvcService, ConcurrentSubmittersAreDeterministic) {
  // Many threads race identical submissions; the flow must still execute
  // exactly once and every record must carry the same metrics.
  ServiceOptions options;
  options.max_parallel_jobs = 2;
  FlowService service(options);
  constexpr int kSubmitters = 8;
  std::vector<JobId> ids(kSubmitters);
  {
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (int i = 0; i < kSubmitters; ++i)
      threads.emplace_back(
          [&service, &ids, i] { ids[i] = *service.submit(tiny_job()); });
    for (std::thread& t : threads) t.join();
  }
  service.drain();
  const JobRecord first = service.wait(ids[0]);
  ASSERT_EQ(first.state, JobState::kDone);
  for (const JobId id : ids) {
    const JobRecord record = service.wait(id);
    EXPECT_EQ(record.state, JobState::kDone);
    expect_metrics_identical(record.outcome.metrics, first.outcome.metrics);
  }
  EXPECT_EQ(service.stats().flow_executions, 1u);
  EXPECT_EQ(service.stats().coalesced, kSubmitters - 1u);
}

TEST(SvcService, DispatchFaultFailsOneJobAndTheQueueKeepsDraining) {
  faults::reset();
  faults::FaultSpec spec;
  spec.action = faults::Action::kThrow;
  spec.count = 1;
  faults::arm("svc.dispatch", spec);

  ServiceOptions options;
  options.max_parallel_jobs = 1;
  options.start_paused = true;
  options.coalesce_duplicates = false;
  FlowService service(options);
  const JobId poisoned = *service.submit(tiny_job(0.01));
  const JobId second = *service.submit(tiny_job(0.02));
  const JobId third = *service.submit(tiny_job(0.03));
  service.resume();
  service.drain();
  faults::reset();

  const JobRecord failed = service.wait(poisoned);
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_EQ(failed.outcome.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(service.wait(second).state, JobState::kDone);
  EXPECT_EQ(service.wait(third).state, JobState::kDone);
  const FlowService::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.done, 2u);
}

// ---- flight recorder -------------------------------------------------------

TEST(SvcFlight, RecordsCompleteStoryForExecutedJob) {
  FlowService service((ServiceOptions()));
  const JobId id = *service.submit(tiny_job());
  const JobRecord record = service.wait(id);
  ASSERT_EQ(record.state, JobState::kDone);

  const std::optional<FlightRecord> flight = service.flight(id);
  ASSERT_TRUE(flight.has_value());
  EXPECT_EQ(flight->id, id);
  EXPECT_EQ(flight->name, "tiny");
  EXPECT_EQ(flight->state, "done");
  EXPECT_EQ(flight->status_code, "ok");
  EXPECT_GT(flight->run_sequence, 0u);
  EXPECT_FALSE(flight->cache_hit);
  EXPECT_FALSE(flight->coalesced);
  EXPECT_FALSE(flight->dataset);
  EXPECT_GT(flight->exec_seconds, 0.0);
  EXPECT_EQ(flight->cache_key, record.cache_key);
  EXPECT_EQ(flight->dataset_key, record.dataset_key);

  // Phase walls and QoR mirror the outcome metrics exactly.
  const FlowMetrics& m = record.outcome.metrics;
  EXPECT_EQ(flight->map_seconds, m.map_seconds);
  EXPECT_EQ(flight->route_seconds, m.route_seconds);
  EXPECT_EQ(flight->wirelength_um, m.wirelength_um);
  EXPECT_EQ(flight->num_cells, m.num_cells);
  EXPECT_EQ(flight->critical_path_ns, m.critical_path_ns);
  EXPECT_EQ(flight->routing_violations, m.routing_violations);

  // Router telemetry: one trajectory entry per rip-up iteration, with the
  // dirty-edge series kept in lockstep (both legitimately empty when the
  // route converges without negotiation).
  EXPECT_EQ(flight->overflow_trajectory.size(), flight->dirty_edges.size());
  EXPECT_EQ(flight->route_iterations(),
            static_cast<std::uint32_t>(flight->overflow_trajectory.size()));

  // The ring serves the same record, newest first.
  const std::vector<FlightRecord> recent = service.recent_flights();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent.front().id, id);
}

TEST(SvcFlight, FailedAndCancelledJobsLeaveRecords) {
  {
    FlowService service((ServiceOptions()));
    JobSpec bad = tiny_job();
    bad.design_text = ".i banana\n";
    const JobId id = *service.submit(bad);
    ASSERT_EQ(service.wait(id).state, JobState::kFailed);
    const std::optional<FlightRecord> flight = service.flight(id);
    ASSERT_TRUE(flight.has_value());
    EXPECT_EQ(flight->state, "failed");
    EXPECT_EQ(flight->status_code, "parse_error");
    EXPECT_FALSE(flight->status_message.empty());
  }
  {
    ServiceOptions options;
    options.start_paused = true;
    FlowService service(options);
    const JobId id = *service.submit(tiny_job());
    ASSERT_TRUE(service.cancel(id));
    const std::optional<FlightRecord> flight = service.flight(id);
    ASSERT_TRUE(flight.has_value());
    EXPECT_EQ(flight->state, "cancelled");
    EXPECT_EQ(flight->run_sequence, 0u);  // never dispatched
    EXPECT_EQ(flight->exec_seconds, 0.0);
  }
}

TEST(SvcFlight, CacheAndDatasetProvenanceAreRecorded) {
  TempDir dir("flightcache");
  ResultCache cache(dir.path.string());
  {
    ServiceOptions options;
    options.cache = &cache;
    FlowService service(options);
    service.wait(*service.submit(tiny_job()));
  }
  {
    ServiceOptions options;
    options.cache = &cache;
    FlowService service(options);
    const JobId id = *service.submit(tiny_job());
    ASSERT_EQ(service.wait(id).state, JobState::kDone);
    const std::optional<FlightRecord> flight = service.flight(id);
    ASSERT_TRUE(flight.has_value());
    EXPECT_TRUE(flight->cache_hit);
    EXPECT_FALSE(flight->dataset);
    EXPECT_EQ(flight->route_iterations(), 0u) << "no flow ran on a cache hit";
  }

  // Dataset-served: the flight pins the blob's pack version.
  TempDir ds_dir("flightds");
  const JobSpec spec = tiny_job();
  ASSERT_TRUE(pack_job_dataset(spec, ds_dir.path.string(), /*version=*/3).ok());
  store::DatasetStore datasets(ds_dir.path.string());
  datasets.refresh();
  ServiceOptions options;
  options.datasets = &datasets;
  FlowService service(options);
  const JobId id = *service.submit(spec);
  ASSERT_EQ(service.wait(id).state, JobState::kDone);
  const std::optional<FlightRecord> flight = service.flight(id);
  ASSERT_TRUE(flight.has_value());
  EXPECT_TRUE(flight->dataset);
  EXPECT_FALSE(flight->cache_hit);
  EXPECT_EQ(flight->dataset_version, 3u);
}

TEST(SvcFlight, JsonRoundTripAndSchemaGate) {
  FlightRecord flight;
  flight.id = 42;
  flight.name = "round\"trip";
  flight.state = "done";
  flight.priority = -3;
  flight.run_sequence = 7;
  flight.cache_key = "cachekey";
  flight.dataset_key = "dskey";
  flight.queue_seconds = 0.25;
  flight.exec_seconds = 1.5;
  flight.queue_depth_at_submit = 9;
  flight.dataset = true;
  flight.dataset_version = 12;
  flight.status_code = "ok";
  flight.map_seconds = 0.5;
  flight.place_seconds = 0.25;
  flight.route_seconds = 0.5;
  flight.sta_seconds = 0.25;
  flight.overflow_trajectory = {41, 7, 0};
  flight.dirty_edges = {120, 30, 0};
  flight.ripups = 150;
  flight.maze_pops = 9000;
  flight.rcm_passes = 2;
  flight.rcm_cells_moved = 17;
  flight.rcm_overflow_removed = 13;
  flight.rcm_overflow_trajectory = {41, 30, 28};
  flight.k_factor = 0.05;
  flight.num_cells = 321;
  flight.wirelength_um = 1234.5;
  flight.routable = true;
  flight.events = {"one event", "two: with, punctuation"};

  const std::string json = flight_record_to_json(flight);
  Result<FlightRecord> back = flight_record_from_json(json);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->id, flight.id);
  EXPECT_EQ(back->name, flight.name);
  EXPECT_EQ(back->priority, flight.priority);
  EXPECT_EQ(back->run_sequence, flight.run_sequence);
  EXPECT_EQ(back->queue_seconds, flight.queue_seconds);
  EXPECT_EQ(back->exec_seconds, flight.exec_seconds);
  EXPECT_EQ(back->queue_depth_at_submit, flight.queue_depth_at_submit);
  EXPECT_EQ(back->dataset, flight.dataset);
  EXPECT_EQ(back->dataset_version, flight.dataset_version);
  EXPECT_EQ(back->overflow_trajectory, flight.overflow_trajectory);
  EXPECT_EQ(back->dirty_edges, flight.dirty_edges);
  EXPECT_EQ(back->ripups, flight.ripups);
  EXPECT_EQ(back->maze_pops, flight.maze_pops);
  EXPECT_EQ(back->rcm_passes, flight.rcm_passes);
  EXPECT_EQ(back->rcm_cells_moved, flight.rcm_cells_moved);
  EXPECT_EQ(back->rcm_overflow_removed, flight.rcm_overflow_removed);
  EXPECT_EQ(back->rcm_overflow_trajectory, flight.rcm_overflow_trajectory);
  EXPECT_EQ(back->k_factor, flight.k_factor);
  EXPECT_EQ(back->wirelength_um, flight.wirelength_um);
  EXPECT_EQ(back->routable, flight.routable);
  EXPECT_EQ(back->events, flight.events);

  // Flat JSON without the schema marker is not a flight record.
  EXPECT_FALSE(flight_record_from_json("{\"job_id\": 1}").ok());
  EXPECT_FALSE(flight_record_from_json("not json").ok());
}

TEST(SvcFlight, RingEvictsOldestFirst) {
  FlightRing ring(2);
  for (const JobId id : {JobId{1}, JobId{2}, JobId{3}}) {
    FlightRecord flight;
    flight.id = id;
    ring.push(std::move(flight));
  }
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_FALSE(ring.find(1).has_value()) << "oldest must be evicted";
  EXPECT_TRUE(ring.find(2).has_value());
  EXPECT_TRUE(ring.find(3).has_value());
  const std::vector<FlightRecord> recent = ring.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].id, 3u) << "newest first";
  EXPECT_EQ(recent[1].id, 2u);
}

// ---- telemetry endpoint ----------------------------------------------------

TEST(SvcTelemetry, EndpointsServeServiceState) {
  FlowService service((ServiceOptions()));
  const JobId id = *service.submit(tiny_job());
  ASSERT_EQ(service.wait(id).state, JobState::kDone);
  TelemetryServer telemetry(service);

  const TelemetryServer::Response metrics = telemetry.handle("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("cals_service_jobs_done 1"), std::string::npos);
  EXPECT_NE(metrics.body.find("cals_service_queued 0"), std::string::npos);

  const TelemetryServer::Response health = telemetry.handle("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"accepting\": true"), std::string::npos);
  EXPECT_NE(health.body.find("\"done\": 1"), std::string::npos);

  const TelemetryServer::Response jobs = telemetry.handle("GET", "/jobs");
  EXPECT_EQ(jobs.status, 200);
  EXPECT_NE(jobs.body.find("\"name\": \"tiny\""), std::string::npos);

  const std::string target = "/jobs/" + std::to_string(id);
  const TelemetryServer::Response one = telemetry.handle("GET", target);
  EXPECT_EQ(one.status, 200);
  Result<FlightRecord> flight = flight_record_from_json(one.body);
  ASSERT_TRUE(flight.ok()) << flight.status().to_string();
  EXPECT_EQ(flight->id, id);

  EXPECT_EQ(telemetry.handle("GET", "/jobs/999999").status, 404);
  EXPECT_EQ(telemetry.handle("GET", "/jobs/notanumber").status, 404);
  EXPECT_EQ(telemetry.handle("GET", "/nope").status, 404);
  EXPECT_EQ(telemetry.handle("POST", "/metrics").status, 405);
  // Query strings are tolerated and ignored.
  EXPECT_EQ(telemetry.handle("GET", "/healthz?verbose=1").status, 200);
}

#ifndef _WIN32
/// Minimal HTTP/1.1 GET over a fresh loopback connection; returns the raw
/// response (headers + body) or "" on any socket failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(SvcTelemetry, ListenerServesScrapesOnEphemeralPort) {
  FlowService service((ServiceOptions()));
  const JobId id = *service.submit(tiny_job());
  ASSERT_EQ(service.wait(id).state, JobState::kDone);

  TelemetryServer telemetry(service);  // port 0 = ephemeral
  ASSERT_TRUE(telemetry.start().ok());
  ASSERT_NE(telemetry.port(), 0);

  const std::string metrics = http_get(telemetry.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("cals_service_jobs_done 1"), std::string::npos);

  const std::string one =
      http_get(telemetry.port(), "/jobs/" + std::to_string(id));
  EXPECT_NE(one.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::size_t body_at = one.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  Result<FlightRecord> flight = flight_record_from_json(one.substr(body_at + 4));
  ASSERT_TRUE(flight.ok()) << flight.status().to_string();
  EXPECT_EQ(flight->id, id);

  const std::string missing = http_get(telemetry.port(), "/jobs/424242");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  telemetry.stop();
  // After stop the port no longer answers.
  EXPECT_EQ(http_get(telemetry.port(), "/healthz"), "");
}
#endif  // !_WIN32

// ---- spool protocol --------------------------------------------------------

TEST(SvcSpool, SubmitScanLoadRoundTrip) {
  TempDir dir("spool");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();

  JobSpec spec = tiny_job();
  spec.name = "spool trip / weird:name";  // sanitized in the stem
  Result<std::string> stem = spool_submit(*spool, spec);
  ASSERT_TRUE(stem.ok()) << stem.status().to_string();
  EXPECT_EQ(stem->find('/'), std::string::npos);
  EXPECT_EQ(stem->find(':'), std::string::npos);

  const std::vector<fs::path> files = spool_scan(*spool);
  ASSERT_EQ(files.size(), 1u);
  Result<JobSpec> loaded = spool_load_job(files[0]);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->design_text, spec.design_text);
  EXPECT_EQ(job_cache_key(*loaded), job_cache_key(spec));
}

TEST(SvcSpool, SubmissionOrderIsLexicographic) {
  TempDir dir("spool");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());
  std::vector<std::string> stems;
  for (int i = 0; i < 5; ++i)
    stems.push_back(*spool_submit(*spool, tiny_job()));
  const std::vector<fs::path> files = spool_scan(*spool);
  ASSERT_EQ(files.size(), 5u);
  for (std::size_t i = 0; i < files.size(); ++i)
    EXPECT_EQ(files[i].stem().string(), stems[i]);  // FIFO by filename
}

TEST(SvcSpool, PublishAndFindResult) {
  TempDir dir("spool");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());

  JobRecord record;
  record.id = 7;
  record.name = "tiny";
  record.state = JobState::kDone;
  record.cache_key = "0123456789abcdef";
  record.run_sequence = 3;
  record.outcome.metrics.num_cells = 42;
  record.outcome.metrics.wirelength_um = 1234.5;
  ASSERT_TRUE(spool_publish_result(*spool, "stem-1", record));

  const fs::path found = spool_find_result(*spool, "stem-1");
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found.parent_path(), spool->done);
  std::ifstream in(found);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Result<JobOutcome> outcome = job_outcome_from_json(text);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome->metrics.num_cells, 42u);
  EXPECT_EQ(outcome->metrics.wirelength_um, 1234.5);

  record.state = JobState::kFailed;
  record.outcome.status = Status::internal("boom");
  ASSERT_TRUE(spool_publish_result(*spool, "stem-2", record));
  EXPECT_EQ(spool_find_result(*spool, "stem-2").parent_path(), spool->failed);
  EXPECT_TRUE(spool_find_result(*spool, "no-such-stem").empty());
}

TEST(SvcSpool, LoadAnnotatesParseErrorsWithThePath) {
  TempDir dir("spool");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());
  const fs::path bad = spool->incoming / "bad.json";
  { std::ofstream(bad) << "{ nope"; }
  const Result<JobSpec> loaded = spool_load_job(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("bad.json"), std::string::npos)
      << loaded.status().to_string();
}

TEST(SvcSpool, FlightPublishFindAndFaultDegradation) {
  TempDir dir("spoolflight");
  Result<SpoolPaths> spool = open_spool(dir.path.string());
  ASSERT_TRUE(spool.ok());

  FlightRecord flight;
  flight.id = 5;
  flight.name = "spooled";
  flight.state = "done";
  ASSERT_TRUE(spool_publish_flight(*spool, "stem-abc", flight));
  const fs::path found = spool_find_flight(*spool, "stem-abc");
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found.parent_path(), spool->flights);
  std::ifstream in(found);
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  Result<FlightRecord> back = flight_record_from_json(body);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, 5u);
  EXPECT_EQ(back->name, "spooled");

  EXPECT_TRUE(spool_find_flight(*spool, "no-such-stem").empty());

  // A faulted flight write degrades to `false` — it never throws, and the
  // flights directory simply does not gain the record.
  faults::reset();
  faults::FaultSpec spec;
  spec.action = faults::Action::kThrow;
  spec.count = 1;
  faults::arm("svc.flight", spec);
  EXPECT_FALSE(spool_publish_flight(*spool, "stem-faulted", flight));
  faults::reset();
  EXPECT_TRUE(spool_find_flight(*spool, "stem-faulted").empty());
  // The next publish (fault exhausted) succeeds again.
  EXPECT_TRUE(spool_publish_flight(*spool, "stem-faulted", flight));
}

}  // namespace
}  // namespace cals::svc
