#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "flow/baselines.hpp"
#include "svc/journal.hpp"
#include "svc/spool.hpp"
#include "library/corelib.hpp"
#include "library/genlib.hpp"
#include "netlist/blif.hpp"
#include "sop/pla_io.hpp"
#include "store/dataset_store.hpp"
#include "util/check.hpp"
#include "util/faults.hpp"
#include "util/log.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads/presets.hpp"

namespace cals::svc {

Result<JobDesign> build_job_design(const JobSpec& spec) {
  // ---- front end ----------------------------------------------------------
  BaseNetwork net;
  if (spec.format == DesignFormat::kBlif) {
    Result<BlifModel> model = parse_blif_string(spec.design_text);
    if (!model.ok()) return model.status();
    net = std::move(model->network);
    net.compact();
  } else {
    const Result<Pla> pla = parse_pla_string(spec.design_text);
    if (!pla.ok()) return pla.status();
    // The calibrated SIS-style script cals_flow and the paper tables use.
    net = spec.sis ? synthesize_sis_mode(*pla, nullptr, workloads::sis_extract_options())
                   : synthesize_base(*pla);
  }

  // ---- library + floorplan ------------------------------------------------
  Library lib = lib::make_corelib();
  if (!spec.genlib_text.empty()) {
    Result<Library> parsed = parse_genlib_string(spec.genlib_text);
    if (!parsed.ok()) return parsed.status();
    lib = std::move(*parsed);
  }
  const Floorplan fp =
      spec.rows > 0
          ? Floorplan::square_with_rows(spec.rows, lib.tech())
          : Floorplan::for_cell_area(net.num_base_gates() * 5.3, spec.util, lib.tech());
  return JobDesign{std::move(net), std::move(lib), fp};
}

JobOutcome evaluate_job_on_context(const JobSpec& spec, const DesignContext& context,
                                   std::vector<RouteIterStats>* route_iters,
                                   rcm::RepairStats* repair) {
  CALS_TRACE_SCOPE("svc.job.eval");
  JobOutcome outcome;
  // The text and the dataset path both land here: a grid this large
  // outgrows the router's packed maze coordinates and memory.
  const Rect die = context.floorplan().die();
  const double gcell = spec.options.rgrid.gcell_um;
  const double nx = std::ceil(die.width() / gcell);
  const double ny = std::ceil(die.height() / gcell);
  if (!(nx <= kMaxGcellsPerSide && ny <= kMaxGcellsPerSide)) {
    outcome.status = Status::parse_error(
        strprintf("job: 'g_cell_um' %g gives a %.0f x %.0f routing grid (at most %u a side)",
                  gcell, nx, ny, kMaxGcellsPerSide));
    return outcome;
  }
  FlowOptions options = spec.options;
  options.num_threads = 1;  // auto_k walks its schedule on this thread
  options.on_error = ErrorPolicy::kBestEffort;

  if (spec.auto_k) {
    FlowIterationResult search =
        congestion_aware_flow(context, kAutoKSchedule, options);
    outcome.status = search.status;
    if (!search.runs.empty()) {
      outcome.metrics = search.runs[search.chosen].metrics;
      if (route_iters != nullptr)
        *route_iters = search.runs[search.chosen].route.iter_stats;
      if (repair != nullptr) *repair = search.runs[search.chosen].repair;
    }
  } else {
    FlowResult result = context.run_checked(options);
    outcome.status = result.status;
    outcome.metrics = result.run.metrics;
    if (route_iters != nullptr) *route_iters = result.run.route.iter_stats;
    if (repair != nullptr) *repair = result.run.repair;
  }
  return outcome;
}

JobOutcome run_flow_job(const JobSpec& spec, std::vector<RouteIterStats>* route_iters,
                        rcm::RepairStats* repair) {
  CALS_TRACE_SCOPE("svc.job.flow");
  Result<JobDesign> design = build_job_design(spec);
  if (!design.ok()) {
    JobOutcome outcome;
    outcome.status = design.status();
    return outcome;
  }
  // The attempt's token reaches the base placement too; it is a runtime
  // control outside every key, so the placement does not change.
  PlaceOptions place;
  place.cancel = spec.options.cancel;
  std::optional<DesignContext> context;
  try {
    context.emplace(std::move(design->net), &design->library, design->floorplan, place);
  } catch (const CancelledError& e) {
    JobOutcome outcome;
    const std::string message = strprintf("flow: %s in context construction", e.what());
    outcome.status = e.cause() == CancelCause::kDeadlineExceeded
                         ? Status::deadline_exceeded(message)
                         : Status::cancelled(message);
    return outcome;
  }
  return evaluate_job_on_context(spec, *context, route_iters, repair);
}

double retry_backoff_delay_ms(double base_ms, double max_ms,
                              std::uint32_t attempt, std::uint64_t salt) {
  if (base_ms <= 0.0) return 0.0;
  const double exp =
      base_ms * std::pow(2.0, attempt > 0 ? attempt - 1 : 0u);
  const double capped = max_ms > 0.0 ? std::min(exp, max_ms) : exp;
  // splitmix64 over (salt, attempt): fully deterministic, so the same job
  // retried on two replicas lands on the same schedule (testable) while
  // different jobs decorrelate.
  std::uint64_t x = salt + 0x9e3779b97f4a7c15ull * (attempt + 1ull);
  x ^= x >> 30; x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27; x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  const double unit = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0, 1)
  return capped * (0.5 + 0.5 * unit);
}

FlowService::FlowService(ServiceOptions options)
    : options_(options), flights_(options.flight_ring_capacity) {
  const std::uint32_t jobs = std::max(1u, options_.max_parallel_jobs);
  paused_ = options_.start_paused;
  dispatchers_.reserve(jobs);
  for (std::uint32_t i = 0; i < jobs; ++i)
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

FlowService::~FlowService() { shutdown(/*cancel_queued=*/true); }

void FlowService::publish_queue_depth_locked() const {
  CALS_OBS_GAUGE_SET("svc.queue_depth", queue_.size());
  CALS_TRACE_COUNTER("svc.queue_depth", queue_.size());
}

Result<JobId> FlowService::submit(JobSpec spec, std::string journal_stem) {
  // One streaming pass over the design/library bytes yields both content
  // keys; the record carries them so dispatch never re-hashes.
  const JobKeys keys = job_keys(spec);
  const std::string& key = keys.cache_key;
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ != Stopping::kNo)
    return Status::internal("svc: service is shut down, submission refused");

  auto make_job = [&]() {
    auto job = std::make_shared<Job>();
    job->record.id = next_id_++;
    job->record.name = spec.name;
    job->record.priority = spec.priority;
    job->record.cache_key = key;
    job->record.dataset_key = keys.dataset_key;
    job->attempt = spec.attempt_base;
    job->journal_stem = std::move(journal_stem);
    job->spec = std::move(spec);
    job->submitted = std::chrono::steady_clock::now();
    job->queue_depth_at_submit = queue_.size();
    jobs_.emplace(job->record.id, job);
    ++stats_.submitted;
    CALS_OBS_COUNT("svc.jobs_submitted", 1);
    // Write-ahead: the journal learns about the job before any dispatcher
    // can touch it (both happen under mutex_), so a crash from here on
    // always finds the stem in the replay.
    if (options_.journal != nullptr && !job->journal_stem.empty())
      options_.journal->record_accepted(job->journal_stem, job->attempt);
    return job;
  };

  // Coalesce onto an identical in-flight job: the follower gets a record but
  // no queue slot (it consumes no execution resources, so it is exempt from
  // admission control).
  if (options_.coalesce_duplicates) {
    const auto it = active_by_key_.find(key);
    if (it != active_by_key_.end()) {
      const auto primary = jobs_.find(it->second);
      CALS_CHECK_MSG(primary != jobs_.end(), "svc: dangling coalescing index");
      auto job = make_job();
      primary->second->followers.push_back(job->record.id);
      return job->record.id;
    }
  }

  if (queue_.size() >= options_.queue_capacity) {
    ++stats_.rejected;
    CALS_OBS_COUNT("svc.jobs_rejected", 1);
    return Status::budget_exceeded(
        strprintf("svc: queue full (%zu queued, capacity %zu, %zu running): job "
                  "'%s' rejected — retry later or raise queue_capacity",
                  queue_.size(), options_.queue_capacity, running_,
                  spec.name.c_str()));
  }

  auto job = make_job();
  queue_.emplace(-static_cast<std::int64_t>(job->record.priority), job->record.id);
  active_by_key_[key] = job->record.id;
  publish_queue_depth_locked();
  work_available_.notify_one();
  return job->record.id;
}

void FlowService::journal_terminal_locked(const Job& job) {
  if (options_.journal == nullptr || job.journal_stem.empty()) return;
  options_.journal->record_terminal(job.journal_stem, job.attempt,
                                    job.record.state,
                                    spool_result_json(job.record));
}

void FlowService::cancel_queued_job_locked(Job& job) {
  job.record.state = JobState::kCancelled;
  ++stats_.cancelled;
  CALS_OBS_COUNT("svc.jobs_cancelled", 1);
  journal_terminal_locked(job);
  push_flight_locked(job, FlightExtras{});
}

bool FlowService::cancel(JobId id) {
  std::vector<JobId> to_cancel;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || job_state_terminal(it->second->record.state))
      return false;
    const std::shared_ptr<Job>& job = it->second;

    if (job->record.state == JobState::kRunning) {
      // Cooperative cancellation: fire the attempt's token and let the flow
      // unwind at its next checkpoint. The job finalizes as kCancelled via
      // the normal execute() path — true means "request delivered".
      if (job->cancel == nullptr) return false;
      job->cancel->cancel();
      return true;
    }

    // Still queued: a ready-queue primary, a retry-waiting primary, or a
    // follower attached to someone else's execution.
    const auto queue_entry = queue_.find(
        {-static_cast<std::int64_t>(job->record.priority), job->record.id});
    bool was_primary = false;
    if (queue_entry != queue_.end()) {
      queue_.erase(queue_entry);
      was_primary = true;
      publish_queue_depth_locked();
    } else {
      for (auto rit = retry_queue_.begin(); rit != retry_queue_.end(); ++rit) {
        if (rit->second != id) continue;
        retry_queue_.erase(rit);
        was_primary = true;
        break;
      }
    }
    if (was_primary) {
      // Drop the slot, cancel the primary and every follower riding on it.
      const auto key_entry = active_by_key_.find(job->record.cache_key);
      if (key_entry != active_by_key_.end() && key_entry->second == id)
        active_by_key_.erase(key_entry);
      to_cancel.push_back(id);
      to_cancel.insert(to_cancel.end(), job->followers.begin(), job->followers.end());
      job->followers.clear();
    } else {
      // A follower: detach it from its primary.
      bool detached = false;
      for (auto& [pid, primary] : jobs_) {
        auto& fs = primary->followers;
        const auto f = std::find(fs.begin(), fs.end(), id);
        if (f != fs.end()) {
          fs.erase(f);
          detached = true;
          break;
        }
      }
      if (!detached) return false;  // being resolved right now — too late
      to_cancel.push_back(id);
    }
    for (const JobId cid : to_cancel) cancel_queued_job_locked(*jobs_.at(cid));
    state_changed_.notify_all();
  }
  return !to_cancel.empty();
}

std::size_t FlowService::cancel_running() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t fired = 0;
  for (auto& [id, job] : jobs_) {
    if (job->record.state != JobState::kRunning || job->cancel == nullptr)
      continue;
    job->cancel->cancel();
    ++fired;
  }
  return fired;
}

JobRecord FlowService::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  CALS_CHECK_MSG(it != jobs_.end(), "FlowService::wait on unknown job id");
  const std::shared_ptr<Job> job = it->second;
  state_changed_.wait(lock, [&] { return job_state_terminal(job->record.state); });
  return job->record;
}

std::optional<JobRecord> FlowService::snapshot(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second->record;
}

void FlowService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (paused_) {
    paused_ = false;
    work_available_.notify_all();
  }
  state_changed_.wait(lock, [&] {
    return queue_.empty() && retry_queue_.empty() && running_ == 0;
  });
}

void FlowService::shutdown(bool cancel_queued) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_ == Stopping::kNow ||
        (stopping_ == Stopping::kDrain && !cancel_queued))
      return;
    if (paused_) paused_ = false;
    if (cancel_queued) {
      stopping_ = Stopping::kNow;
      for (const auto& [neg_priority, id] : queue_) {
        Job& job = *jobs_.at(id);
        cancel_queued_job_locked(job);
        for (const JobId fid : job.followers)
          cancel_queued_job_locked(*jobs_.at(fid));
        job.followers.clear();
        active_by_key_.erase(job.record.cache_key);
      }
      queue_.clear();
      // Retry-waiting jobs hold no queue_ slot but are equally unstarted.
      for (const auto& [due, id] : retry_queue_) {
        Job& job = *jobs_.at(id);
        cancel_queued_job_locked(job);
        for (const JobId fid : job.followers)
          cancel_queued_job_locked(*jobs_.at(fid));
        job.followers.clear();
        active_by_key_.erase(job.record.cache_key);
      }
      retry_queue_.clear();
      publish_queue_depth_locked();
    } else {
      stopping_ = Stopping::kDrain;
    }
    work_available_.notify_all();
    state_changed_.notify_all();
  }
  for (std::thread& t : dispatchers_)
    if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    watchdog_stop_ = true;
    watchdog_cv_.notify_all();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

void FlowService::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void FlowService::resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = false;
  work_available_.notify_all();
}

FlowService::Stats FlowService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.queued = queue_.size() + retry_queue_.size();
  s.running = running_;
  return s;
}

void FlowService::dispatcher_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (stopping_ == Stopping::kNow) return;
        // Promote retry-waiting jobs whose backoff has elapsed back into
        // the ready queue (they kept their priority slot semantics).
        const auto now = std::chrono::steady_clock::now();
        while (!retry_queue_.empty() && retry_queue_.begin()->first <= now) {
          const JobId rid = retry_queue_.begin()->second;
          retry_queue_.erase(retry_queue_.begin());
          const Job& waiting = *jobs_.at(rid);
          queue_.emplace(-static_cast<std::int64_t>(waiting.record.priority),
                         rid);
        }
        if (!paused_ && !queue_.empty()) break;
        if (!paused_ && stopping_ == Stopping::kDrain && queue_.empty() &&
            retry_queue_.empty())
          return;
        // Sleep until woken — or until the earliest pending retry is due,
        // so a backoff never needs an external nudge to resume. The due time
        // is copied: wait_until reads it after waking, when another
        // dispatcher may already have erased that retry_queue_ node.
        if (!paused_ && !retry_queue_.empty()) {
          const auto due = retry_queue_.begin()->first;
          work_available_.wait_until(lock, due);
        } else {
          work_available_.wait(lock);
        }
      }
      const auto top = *queue_.begin();
      queue_.erase(queue_.begin());
      job = jobs_.at(top.second);
      job->record.state = JobState::kRunning;
      job->record.run_sequence = ++dispatch_seq_;
      ++running_;
      publish_queue_depth_locked();
      CALS_OBS_GAUGE_MAX("svc.max_running", running_);

      // Arm the attempt: bump the counter, hand the flow a fresh token and
      // start the deadline clock. The token is per-attempt so a deadline
      // fired against attempt N can never poison attempt N+1.
      ++job->attempt;
      job->cancel = std::make_shared<CancelToken>();
      job->spec.options.cancel = job->cancel.get();
      const double deadline_s = job->spec.deadline_s > 0.0
                                    ? job->spec.deadline_s
                                    : options_.default_deadline_s;
      if (deadline_s > 0.0) {
        job->cancel->set_deadline_after(deadline_s);
        armed_deadlines_[job->record.id] = job->cancel;
        watchdog_cv_.notify_all();
      }
      if (options_.journal != nullptr && !job->journal_stem.empty())
        options_.journal->record_dispatched(job->journal_stem, job->attempt);
    }
    execute(job);
  }
}

void FlowService::watchdog_loop() {
  // Belt-and-braces for deadlines: CancelToken::check() self-promotes an
  // expired deadline at the next poll, but a flow stalled between polls
  // (e.g. deep inside one router iteration) would otherwise run to the
  // *next* checkpoint before noticing. The watchdog fires tokens the moment
  // their wall-clock deadline passes, so the first poll after the stall
  // sees a plain fired flag.
  std::unique_lock<std::mutex> lock(mutex_);
  while (!watchdog_stop_) {
    auto earliest = std::chrono::steady_clock::time_point::max();
    for (auto it = armed_deadlines_.begin(); it != armed_deadlines_.end();) {
      const std::shared_ptr<CancelToken>& token = it->second;
      if (!token->has_deadline() || token->fired()) {
        it = armed_deadlines_.erase(it);
        continue;
      }
      const auto due = token->deadline();
      if (due <= std::chrono::steady_clock::now()) {
        token->fire_deadline();
        it = armed_deadlines_.erase(it);
        continue;
      }
      earliest = std::min(earliest, due);
      ++it;
    }
    if (earliest == std::chrono::steady_clock::time_point::max())
      watchdog_cv_.wait(lock);
    else
      watchdog_cv_.wait_until(lock, earliest);
  }
}

void FlowService::execute(const std::shared_ptr<Job>& job) {
  CALS_TRACE_SCOPE_ARG("svc.job", "priority", job->record.priority);
  const double queue_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - job->submitted)
          .count();
  Timer exec_timer;
  JobOutcome outcome;
  FlightExtras extras;
  bool executed_flow = false;
  try {
    // The dispatch probe sits before the cache so an armed fault poisons
    // exactly one pop — the job is marked failed and the queue keeps moving.
    CALS_FAULT_POINT("svc.dispatch");
    std::optional<JobOutcome> cached;
    if (options_.cache != nullptr)
      cached = options_.cache->lookup(job->record.cache_key);
    if (cached) {
      outcome = std::move(*cached);
    } else {
      // Cold path: prefer a precompiled dataset for this spec's context —
      // the acquired handle keeps the mapping alive for the whole
      // evaluation even if a refresh() hot-swaps a newer version mid-job.
      std::shared_ptr<const store::LoadedDataset> dataset;
      if (options_.datasets != nullptr)
        dataset = options_.datasets->acquire(job->record.dataset_key);
      if (dataset != nullptr) {
        outcome = evaluate_job_on_context(job->spec, dataset->context(),
                                          &extras.route_iters, &extras.repair);
        outcome.dataset = true;
        extras.dataset_version = dataset->version();
        CALS_OBS_COUNT("svc.dataset.jobs", 1);
      } else {
        outcome = run_flow_job(job->spec, &extras.route_iters, &extras.repair);
      }
      executed_flow = true;
      if (options_.cache != nullptr)
        options_.cache->store(job->record.cache_key, outcome);
    }
  } catch (const CancelledError& e) {
    // A token fired outside the flow's own catch (e.g. during context
    // construction): same typed mapping run_checked would have produced.
    outcome = JobOutcome{};
    outcome.status =
        e.cause() == CancelCause::kDeadlineExceeded
            ? Status::deadline_exceeded(strprintf(
                  "svc: job '%s' %s", job->record.name.c_str(), e.what()))
            : Status::cancelled(strprintf("svc: job '%s' %s",
                                          job->record.name.c_str(), e.what()));
  } catch (const std::exception& e) {
    outcome = JobOutcome{};
    outcome.status = Status::internal(
        strprintf("svc: dispatch of job '%s' failed: %s", job->record.name.c_str(),
                  e.what()));
    extras.events.push_back(strprintf("dispatch_exception: %s", e.what()));
    CALS_OBS_COUNT("svc.dispatch_failures", 1);
  }
  outcome.queue_seconds = queue_seconds;
  outcome.exec_seconds = exec_timer.seconds();
  CALS_OBS_OBSERVE("svc.queue_wait_ms", queue_seconds * 1e3);
  CALS_OBS_OBSERVE("svc.job_latency_ms", (queue_seconds + outcome.exec_seconds) * 1e3);

  std::lock_guard<std::mutex> lock(mutex_);
  armed_deadlines_.erase(job->record.id);
  if (executed_flow) ++stats_.flow_executions;
  if (outcome.cache_hit) {
    ++stats_.cache_hits;
  }
  if (outcome.dataset) ++stats_.dataset_hits;

  // Retry decision, made under the lock so shutdown/cancel can't race it:
  // only kInternal failures (crashes, injected faults, allocation failures)
  // are retryable — parse errors, infeasible designs, cancellations and
  // blown deadlines would fail identically every time.
  const bool retryable = !outcome.status.ok() &&
                         outcome.status.code() == ErrorCode::kInternal;
  const std::uint32_t cap = attempt_cap(*job);
  if (retryable && stopping_ != Stopping::kNow && job->attempt < cap) {
    const double delay_ms = retry_backoff_delay_ms(
        options_.retry_backoff_ms, options_.retry_backoff_max_ms, job->attempt,
        job->record.id);
    ++stats_.retries;
    CALS_OBS_COUNT("svc.retries", 1);
    job->retry_events.push_back(
        strprintf("retry: attempt %u/%u failed (%s), backoff %.0f ms",
                  job->attempt, cap, outcome.status.to_string().c_str(),
                  delay_ms));
    CALS_INFO("svc: job '%s' (#%llu) attempt %u/%u failed retryably, retry in %.0f ms",
              job->record.name.c_str(),
              static_cast<unsigned long long>(job->record.id), job->attempt, cap,
              delay_ms);
    if (options_.journal != nullptr && !job->journal_stem.empty())
      options_.journal->record_retry(job->journal_stem, job->attempt);
    job->record.state = JobState::kQueued;
    job->cancel.reset();
    job->spec.options.cancel = nullptr;
    retry_queue_.emplace(
        std::chrono::steady_clock::now() +
            std::chrono::microseconds(std::llround(delay_ms * 1000.0)),
        job->record.id);
    --running_;
    work_available_.notify_all();
    state_changed_.notify_all();
    return;
  }

  outcome.attempts = job->attempt;
  outcome.retries_exhausted = retryable && cap > 1 && job->attempt >= cap;
  finalize_locked(job, std::move(outcome), extras);
  --running_;
  state_changed_.notify_all();
}

std::uint32_t FlowService::attempt_cap(const Job& job) const {
  return std::max(std::max(1u, job.spec.max_attempts),
                  options_.default_max_attempts);
}

void FlowService::finalize_locked(const std::shared_ptr<Job>& job, JobOutcome outcome,
                                  const FlightExtras& extras) {
  JobState terminal = JobState::kDone;
  if (!outcome.status.ok())
    terminal = outcome.status.code() == ErrorCode::kCancelled
                   ? JobState::kCancelled
                   : JobState::kFailed;  // deadline-exceeded counts as failed
  if (terminal == JobState::kDone) {
    ++stats_.done;
    CALS_OBS_COUNT("svc.jobs_done", 1);
  } else if (terminal == JobState::kCancelled) {
    ++stats_.cancelled;
    CALS_OBS_COUNT("svc.jobs_cancelled", 1);
  } else {
    ++stats_.failed;
    CALS_OBS_COUNT("svc.jobs_failed", 1);
    CALS_INFO("svc: job '%s' (#%llu) failed: %s", job->record.name.c_str(),
              static_cast<unsigned long long>(job->record.id),
              outcome.status.to_string().c_str());
  }
  // Followers mirror the primary's result without having run anything.
  for (const JobId fid : job->followers) {
    Job& follower = *jobs_.at(fid);
    follower.record.state = terminal;
    follower.record.outcome = outcome;
    follower.record.outcome.coalesced = true;
    follower.record.outcome.exec_seconds = 0.0;
    follower.record.outcome.queue_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      follower.submitted)
            .count();
    if (terminal == JobState::kDone) ++stats_.done;
    else if (terminal == JobState::kCancelled) ++stats_.cancelled;
    else ++stats_.failed;
    ++stats_.coalesced;
    CALS_OBS_COUNT("svc.jobs_coalesced", 1);
    journal_terminal_locked(follower);
    // Followers get their own flight record: scheduling fields are theirs,
    // execution telemetry stays with the primary (nothing ran here).
    push_flight_locked(follower, FlightExtras{});
  }
  job->followers.clear();
  job->record.outcome = std::move(outcome);
  job->record.state = terminal;
  journal_terminal_locked(*job);
  push_flight_locked(*job, extras);
  const auto it = active_by_key_.find(job->record.cache_key);
  if (it != active_by_key_.end() && it->second == job->record.id)
    active_by_key_.erase(it);
}

void FlowService::push_flight_locked(const Job& job, const FlightExtras& extras) {
  FlightRecord flight = flight_from_record(job.record);
  flight.queue_depth_at_submit = job.queue_depth_at_submit;
  flight.dataset_version = extras.dataset_version;
  flight_add_route_stats(flight, extras.route_iters);
  flight_add_repair_stats(flight, extras.repair);
  // Retry provenance first (chronological), then this attempt's events.
  flight.events = job.retry_events;
  flight.events.insert(flight.events.end(), extras.events.begin(),
                       extras.events.end());
  flights_.push(std::move(flight));
}

bool FlowService::accepting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_ == Stopping::kNo;
}

std::vector<FlightRecord> FlowService::recent_flights() const {
  return flights_.recent();
}

std::optional<FlightRecord> FlowService::flight(JobId id) const {
  return flights_.find(id);
}

}  // namespace cals::svc
