/// cals_serve — the batch flow daemon: polls a spool directory for job
/// files (written by cals_submit or anything else), feeds them through a
/// cals::svc::FlowService with admission control, one job per dispatcher
/// thread, and publishes one result record per job into the spool's done/
/// or failed/ directory.
///
/// Usage:
///   cals_serve --spool <dir> [options]
///
/// Options:
///   --capacity <n>     queued-job bound for admission control (default 64)
///   --jobs <n>         concurrent flow executions, one dispatcher thread
///                      each (default 2)
///   --retries <n>      in-process retry budget for retryable (internal)
///                      failures: every job may run up to n+1 attempts with
///                      exponential backoff + jitter (default 0 = one attempt)
///   --max-attempts <n> crash-attempt cap: an orphaned job recovered from the
///                      journal more than n times moves to quarantine/
///                      instead of re-running (default 3)
///   --deadline <s>     per-attempt execution deadline; an attempt past it is
///                      cancelled cooperatively and fails with
///                      deadline_exceeded (default 0 = none)
///   --cache <dir>      persistent result cache directory (off when absent)
///   --cache-cap-mb <n> on-disk cache size cap, oldest entries evicted
///                      (default 0 = unbounded)
///   --dataset-dir <d>  precompiled dataset directory (see cals_pack). The
///                      server rescans it every poll, so dropping a
///                      higher-version blob in hot-swaps the dataset without
///                      a restart; cold jobs whose dataset key matches a
///                      blob skip parse/validate/placement/match-db work.
///   --drain            process the existing backlog, then exit 0 (CI /
///                      scripting mode; without it the server polls forever)
///   --listen <port>    serve live introspection over HTTP on 127.0.0.1
///                      (GET-only: /metrics Prometheus text, /jobs recent
///                      flight summaries, /jobs/<id> one full flight record,
///                      /healthz queue + drain state). Port 0 binds an
///                      ephemeral port; the bound port is printed either way.
///                      Implies metrics recording.
///   --poll-ms <n>      spool scan interval (default 100)
///   --max-seconds <f>  hard wall-clock stop, result records flushed (safety
///                      net for unattended runs; default: none)
///   --metrics <file>   write the obs metrics registry dump on exit
///   --trace <file>     write a Chrome trace_event JSON on exit
///   --quiet            suppress the per-job narration
///
/// A job file that does not parse is published straight to failed/ (the
/// spool stem is preserved), and a submission that hits a full queue stays
/// in incoming/ for the next scan — admission pushback, not data loss.
/// Injected faults (svc.dispatch / svc.cache / svc.journal / flow.cancel)
/// mark individual jobs failed or degrade telemetry; the server itself
/// always exits normally (the fault-sweep contract).
///
/// Crash safety (DESIGN.md §14): every admission, dispatch, retry and
/// terminal transition is journaled under <spool>/journal/, and an incoming
/// job file survives until its result record is published. A kill -9 at any
/// point therefore loses nothing: the next start replays the journal,
/// republishes finished-but-unpublished results byte-identically, re-enqueues
/// orphaned jobs with their attempt count intact, and quarantines poison
/// jobs that have burned through --max-attempts. SIGTERM/SIGINT trigger a
/// graceful drain instead: dispatch stops, running jobs are cancelled
/// cooperatively, and every terminal state is journaled + published before
/// exit.
///
/// Every published job also gets a flight record (flights/<stem>.flight.json
/// — scheduling, provenance, route telemetry, QoR; see DESIGN.md §13).
/// Flight publishing is best-effort: a failure (or an armed `svc.flight`
/// fault) degrades to a diagnostic line and never fails the job.
///
/// Exit codes: 0 clean shutdown, 1 spool unusable, 2 usage error.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "store/dataset_store.hpp"
#include "svc/journal.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"
#include "svc/spool.hpp"
#include "svc/telemetry_http.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"

using namespace cals;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

[[noreturn]] void usage(const char* argv0, const std::string& why = {}) {
  if (!why.empty()) std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
  std::fprintf(stderr, "usage: %s --spool <dir> [options]\n", argv0);
  std::fprintf(stderr, "run with the source header's option list for details\n");
  std::exit(2);
}

struct Args {
  std::string spool_dir;
  std::size_t capacity = 64;
  std::uint32_t jobs = 2;
  std::uint32_t retries = 0;
  std::uint32_t max_attempts = 3;
  double deadline_s = 0.0;
  std::string cache_dir;
  std::uint64_t cache_cap_mb = 0;
  std::string dataset_dir;
  bool drain = false;
  bool listen = false;
  std::uint32_t listen_port = 0;
  std::uint32_t poll_ms = 100;
  double max_seconds = 0.0;
  std::string metrics_out;
  std::string trace_out;
  bool quiet = false;
};

Args parse(int argc, char** argv) {
  Args args;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc)
      usage(argv[0], std::string("option '") + argv[i] + "' needs a value");
    return argv[++i];
  };
  auto need_u32 = [&](int& i) -> std::uint32_t {
    const char* flag = argv[i];
    const char* text = need(i);
    std::uint32_t value = 0;
    if (!parse_u32(text, value))
      usage(argv[0], std::string("option '") + flag + "': '" + text +
                         "' is not an unsigned integer");
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--spool") == 0) args.spool_dir = need(i);
    else if (std::strcmp(a, "--capacity") == 0) args.capacity = need_u32(i);
    else if (std::strcmp(a, "--jobs") == 0) args.jobs = std::max(1u, need_u32(i));
    else if (std::strcmp(a, "--retries") == 0) args.retries = need_u32(i);
    else if (std::strcmp(a, "--max-attempts") == 0)
      args.max_attempts = std::max(1u, need_u32(i));
    else if (std::strcmp(a, "--deadline") == 0) {
      const char* text = need(i);
      if (!parse_double(text, args.deadline_s) || args.deadline_s < 0.0)
        usage(argv[0], strprintf("option '--deadline': '%s' is not a "
                                 "non-negative number", text));
    }
    else if (std::strcmp(a, "--cache") == 0) args.cache_dir = need(i);
    else if (std::strcmp(a, "--cache-cap-mb") == 0) args.cache_cap_mb = need_u32(i);
    else if (std::strcmp(a, "--dataset-dir") == 0) args.dataset_dir = need(i);
    else if (std::strcmp(a, "--drain") == 0) args.drain = true;
    else if (std::strcmp(a, "--listen") == 0) {
      const char* flag = argv[i];
      args.listen = true;
      args.listen_port = need_u32(i);
      if (args.listen_port > 65535)
        usage(argv[0], std::string("option '") + flag + "': port must be <= 65535");
    }
    else if (std::strcmp(a, "--poll-ms") == 0) args.poll_ms = std::max(1u, need_u32(i));
    else if (std::strcmp(a, "--max-seconds") == 0) {
      const char* text = need(i);
      if (!parse_double(text, args.max_seconds) || args.max_seconds <= 0.0)
        usage(argv[0], strprintf("option '--max-seconds': '%s' is not a positive "
                                 "number", text));
    } else if (std::strcmp(a, "--metrics") == 0) args.metrics_out = need(i);
    else if (std::strcmp(a, "--trace") == 0) args.trace_out = need(i);
    else if (std::strcmp(a, "--quiet") == 0) args.quiet = true;
    else usage(argv[0], std::string("unknown argument '") + a + "'");
  }
  if (args.spool_dir.empty()) usage(argv[0], "--spool is required");
  if (args.capacity == 0) usage(argv[0], "--capacity must be >= 1");
  return args;
}

/// Best-effort flight publishing: a missing (ring-evicted) or unwritable
/// record degrades to one diagnostic line. The job's own result record is
/// already on disk by the time this runs — telemetry can never fail a job.
void publish_flight(const svc::FlowService& service, const svc::SpoolPaths& spool,
                    svc::JobId id, const std::string& stem, bool quiet) {
  const std::optional<svc::FlightRecord> flight = service.flight(id);
  if (flight && svc::spool_publish_flight(spool, stem, *flight)) return;
  if (!quiet) {
    std::printf("cals_serve: flight record for %s dropped (telemetry degraded)\n",
                stem.c_str());
    std::fflush(stdout);
  }
}

int serve(const Args& args) {
  // --listen implies metrics recording: /metrics with every instrument at
  // zero would defeat the point of scraping a live server.
  if (!args.trace_out.empty() || !args.metrics_out.empty() || args.listen)
    obs::set_enabled(true);
  auto say = [&](const char* fmt, auto... values) {
    if (!args.quiet) {
      std::printf(fmt, values...);
      std::fflush(stdout);
    }
  };

  Result<svc::SpoolPaths> spool = svc::open_spool(args.spool_dir);
  if (!spool.ok()) {
    std::fprintf(stderr, "cals_serve: %s\n", spool.status().to_string().c_str());
    return 1;
  }

  // ---- crash recovery, before anything can execute -------------------------
  // Replay the journal against the spool: republish finished-but-unpublished
  // results (no re-execution), quarantine poison jobs, sweep tmp debris, and
  // learn the attempt baseline for every job that must run again.
  svc::JobJournal journal(spool->root / "journal");
  svc::RecoveryOptions recovery_options;
  recovery_options.max_attempts = args.max_attempts;
  const svc::RecoveryReport recovery = svc::recover_spool(*spool, journal,
                                                          recovery_options);
  if (recovery.orphans + recovery.republished + recovery.quarantined +
          recovery.stale_tmp >
      0)
    say("cals_serve: recovery: %zu orphan(s) re-enqueued, %zu result(s) "
        "republished, %zu quarantined, %zu stale tmp file(s) swept\n",
        recovery.orphans, recovery.republished, recovery.quarantined,
        recovery.stale_tmp);
  // Attempts already burned per stem; consumed at (re)admission below.
  std::map<std::string, std::uint32_t> attempt_base = recovery.attempt_base;

  std::unique_ptr<svc::ResultCache> cache;
  if (!args.cache_dir.empty())
    cache = std::make_unique<svc::ResultCache>(args.cache_dir,
                                               args.cache_cap_mb * 1024 * 1024);

  std::unique_ptr<store::DatasetStore> datasets;
  if (!args.dataset_dir.empty()) {
    datasets = std::make_unique<store::DatasetStore>(args.dataset_dir);
    datasets->refresh();
  }

  svc::ServiceOptions service_options;
  service_options.queue_capacity = args.capacity;
  service_options.max_parallel_jobs = args.jobs;
  service_options.cache = cache.get();
  service_options.datasets = datasets.get();
  service_options.journal = &journal;
  service_options.default_max_attempts = args.retries + 1;
  service_options.default_deadline_s = args.deadline_s;
  // Retain flight records at least as long as a job can sit between
  // admission and the publish scan that follows it.
  service_options.flight_ring_capacity = std::max<std::size_t>(256, args.capacity * 2);
  svc::FlowService service(service_options);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  svc::TelemetryServer telemetry(
      service, svc::TelemetryServer::Options{
                   static_cast<std::uint16_t>(args.listen_port), "127.0.0.1"});
  if (args.listen) {
    const Status started = telemetry.start();
    if (!started.ok()) {
      std::fprintf(stderr, "cals_serve: %s\n", started.to_string().c_str());
      return 1;
    }
    say("cals_serve: telemetry listening on http://127.0.0.1:%u "
        "(/metrics /jobs /jobs/<id> /healthz)\n",
        static_cast<unsigned>(telemetry.port()));
  }
  say("cals_serve: spool %s, capacity %zu, %u parallel jobs%s%s\n",
      args.spool_dir.c_str(), args.capacity, args.jobs,
      cache ? strprintf(", cache %s", args.cache_dir.c_str()).c_str() : "",
      datasets ? strprintf(", datasets %s (%zu loaded)", args.dataset_dir.c_str(),
                           datasets->num_datasets())
                     .c_str()
               : "");

  const auto start = std::chrono::steady_clock::now();
  std::map<svc::JobId, std::string> pending;  // admitted job -> spool stem
  std::set<std::string> inflight;  // stems admitted but not yet published
  std::size_t quarantined = recovery.quarantined;

  // Terminal bookkeeping for one job: result record + flight out, published
  // event journaled, then the incoming file consumed — into quarantine/ when
  // the job burned through its retry budget, deleted otherwise. Only after
  // this does the job stop being replayable.
  auto resolve = [&](svc::JobId id, const std::string& stem,
                     const svc::JobRecord& record) {
    svc::spool_publish_result(*spool, stem, record);
    publish_flight(service, *spool, id, stem, args.quiet);
    journal.record_published(stem);
    inflight.erase(stem);
    if (record.outcome.retries_exhausted) {
      svc::JsonObjectWriter diag;
      diag.field("stem", stem);
      diag.field("attempts", record.outcome.attempts);
      diag.field("status", record.outcome.status.to_string());
      diag.field("reason", "retry budget exhausted");
      if (svc::spool_quarantine_job(*spool, stem, std::move(diag).finish())) {
        ++quarantined;
        say("cals_serve: %s quarantined after %u attempts\n", stem.c_str(),
            static_cast<unsigned>(record.outcome.attempts));
        return;
      }
    }
    std::error_code ec;
    std::filesystem::remove(spool->incoming / (stem + ".json"), ec);
  };

  for (;;) {
    if (g_signal != 0) break;
    // ---- pick up new dataset blob versions (hot-swap) ----------------------
    if (datasets) datasets->refresh();

    // ---- admit new job files -----------------------------------------------
    // The file stays in incoming/ until the result record is published: an
    // admitted-but-unfinished job must survive a crash (DESIGN.md §14).
    for (const std::filesystem::path& file : svc::spool_scan(*spool)) {
      const std::string stem = file.stem().string();
      if (inflight.count(stem) != 0) continue;  // already admitted
      Result<svc::JobSpec> spec = svc::spool_load_job(file);
      if (!spec.ok()) {
        // Unparseable submission: publish the diagnosis, consume the file.
        svc::JobRecord record;
        record.name = stem;
        record.state = svc::JobState::kFailed;
        record.outcome.status = spec.status();
        svc::spool_publish_result(*spool, stem, record);
        std::filesystem::remove(file);
        say("cals_serve: %s rejected: %s\n", stem.c_str(),
            spec.status().to_string().c_str());
        continue;
      }
      const auto base = attempt_base.find(stem);
      if (base != attempt_base.end()) {
        spec->attempt_base = base->second;
        attempt_base.erase(base);
      }
      Result<svc::JobId> id = service.submit(std::move(*spec), stem);
      if (!id.ok()) {
        // Queue full: leave the file for a later scan (admission pushback).
        say("cals_serve: %s deferred: %s\n", stem.c_str(),
            id.status().to_string().c_str());
        break;
      }
      pending.emplace(*id, stem);
      inflight.insert(stem);
      say("cals_serve: %s admitted as job #%llu\n", stem.c_str(),
          static_cast<unsigned long long>(*id));
    }

    // ---- publish finished jobs ---------------------------------------------
    for (auto it = pending.begin(); it != pending.end();) {
      const std::optional<svc::JobRecord> record = service.snapshot(it->first);
      if (record && svc::job_state_terminal(record->state)) {
        resolve(it->first, it->second, *record);
        say("cals_serve: %s %s (%s)\n", it->second.c_str(),
            svc::job_state_name(record->state),
            record->outcome.cache_hit   ? "cache hit"
            : record->outcome.coalesced ? "coalesced"
                                        : strprintf("%.3fs", record->outcome.exec_seconds).c_str());
        it = pending.erase(it);
      } else {
        ++it;
      }
    }

    // ---- termination -------------------------------------------------------
    if (args.drain && pending.empty() && svc::spool_scan(*spool).empty()) {
      const svc::FlowService::Stats stats = service.stats();
      if (stats.queued == 0 && stats.running == 0) break;
    }
    if (args.max_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count() > args.max_seconds) {
      say("cals_serve: --max-seconds reached, shutting down\n");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(args.poll_ms));
  }

  telemetry.set_draining(true);
  if (g_signal != 0) {
    // Graceful drain: stop dispatch, cancel the in-flight work cooperatively,
    // journal + publish every terminal state. Whatever was still queued in
    // incoming/ simply waits for the next start.
    const std::size_t fired = service.cancel_running();
    say("cals_serve: signal %d — draining (%zu running job(s) cancelled)\n",
        static_cast<int>(g_signal), fired);
    service.shutdown(/*cancel_queued=*/true);
  } else {
    service.shutdown(/*cancel_queued=*/false);
  }
  // Flush records for anything that reached terminal during shutdown.
  for (const auto& [id, stem] : pending) {
    const std::optional<svc::JobRecord> record = service.snapshot(id);
    if (record && svc::job_state_terminal(record->state))
      resolve(id, stem, *record);
  }
  const svc::FlowService::Stats stats = service.stats();
  say("cals_serve: %llu done, %llu failed, %llu cancelled, %llu rejected, "
      "%llu coalesced, %llu cache hits, %llu flows executed, %llu retries, "
      "%zu orphan(s) recovered, %zu quarantined\n",
      static_cast<unsigned long long>(stats.done),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.flow_executions),
      static_cast<unsigned long long>(stats.retries), recovery.orphans,
      quarantined);
  if (datasets) {
    const store::DatasetStore::Stats ds = datasets->stats();
    say("cals_serve: datasets: %llu jobs served, %llu loads, %llu swaps, "
        "%llu load failures\n",
        static_cast<unsigned long long>(stats.dataset_hits),
        static_cast<unsigned long long>(ds.loads),
        static_cast<unsigned long long>(ds.swaps),
        static_cast<unsigned long long>(ds.load_failures));
  }
  if (!args.trace_out.empty() && !obs::write_chrome_trace(args.trace_out))
    std::fprintf(stderr, "cals_serve: cannot write trace to %s\n",
                 args.trace_out.c_str());
  if (!args.metrics_out.empty() && !obs::write_metrics(args.metrics_out))
    std::fprintf(stderr, "cals_serve: cannot write metrics to %s\n",
                 args.metrics_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return serve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cals_serve: internal error: %s\n", e.what());
    return 1;
  }
}
