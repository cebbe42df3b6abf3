/// serve_cold / serve_hot — service traffic from two closed-loop clients
/// (each submits a job and waits for its record before the next) against an
/// in-process FlowService with 2 dispatchers, a 2-thread budget, a
/// ResultCache and a JobJournal on local disk.
///
///  * serve_cold: every job is a new seeded design (spla/pdc alternating)
///    with the options `cals_submit --preset` sends and a K from the paper
///    grid — every cache lookup misses and every result is stored. The
///    front end (synthesis, the two FM placements, the match database) does
///    most of the work.
///  * serve_hot: a set of designs is packed into dataset blobs during
///    set-up; jobs sweep K over them with replace_mapped=false, every third
///    distinct job repairs (repair_passes=2), and every fourth submission
///    repeats a finished job, which the result cache answers. No front-end
///    work runs per job: covering over the mmap'd match databases, routing,
///    repair and the cache read path do.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "library/corelib.hpp"
#include "store/dataset_store.hpp"
#include "svc/dataset_pack.hpp"
#include "svc/journal.hpp"
#include "svc/result_cache.hpp"
#include "svc/service.hpp"
#include "util/strings.hpp"

#include "layers.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cals;

namespace {

// The paper's K grid (bench/common.hpp kPaperKGrid) in this library's units
// (x100, see EXPERIMENTS.md).
constexpr double kPaperK[] = {0.0,  0.01, 0.025, 0.05, 0.075, 0.1, 0.25,
                              0.5,  0.75, 1.0,   5.0,  10.0,  50.0, 100.0};
constexpr std::size_t kGrid = sizeof(kPaperK) / sizeof(kPaperK[0]);

constexpr std::uint32_t kClients = 2;
constexpr std::uint32_t kDispatchers = 2;
constexpr std::uint32_t kThreadBudget = 2;
constexpr std::size_t kTraceJobs = 32;

// serve_cold: ~100 ms jobs at scale 0.3. A pass is seven walks of the K grid
// (~5 s).
constexpr double kColdScale = 0.3;
constexpr std::size_t kColdJobs = 7 * kGrid;
constexpr int kColdSetupRepeats = 51;
/// Rounds of resubmissions after each complete pass (the repeat probe).
constexpr std::size_t kColdProbeRounds = 3;

// serve_hot: utilization 0.85 overflows the high-K netlists, so repair has
// work. job_tail_ms falls among the repaired overflowing jobs, whose latency
// varies several-fold from design to design (NOTES.md, Calibration). With
// designs drawn per run seed, the CPU per job moved by ~30% and the tail by
// ~50% between seeds, so the designs are one fixed corpus, and the run seed
// orders the jobs and picks the repeats.
constexpr double kHotScale = 0.15;
constexpr double kHotUtil = 0.85;
constexpr std::size_t kHotDesigns = 80;
constexpr std::uint64_t kHotCorpusSeed = 1;
constexpr int kHotSetupRepeats = 3;
/// Submissions per pass (~5 s): 270 distinct jobs and 90 repeats.
constexpr std::size_t kHotSubmissions = 360;
constexpr std::size_t kHotDistinct = kHotSubmissions - kHotSubmissions / 4;
/// serve_hot's QoR sums cover the first two thirds of a pass in the seed's
/// order (180 distinct jobs). Every seed runs the same job list, so sums
/// over all of it would not depend on the seed at all.
constexpr std::size_t kHotQorSubmissions = kHotSubmissions * 2 / 3;

/// The job stream of one run.
class JobStream {
 public:
  /// `cold_jobs`: serve_cold's distinct jobs, one design each.
  JobStream(bool hot, std::uint64_t seed, std::size_t cold_jobs)
      : hot_(hot), seed_(seed) {
    if (!hot) {
      for (std::size_t i = 0; i < cold_jobs; ++i)
        designs_.push_back(make_design(kColdScale, seed, i));
      return;
    }
    for (std::size_t i = 0; i < kHotDesigns; ++i)
      designs_.push_back(make_design(kHotScale, kHotCorpusSeed, i));
    order_.resize(kHotDistinct);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    for (std::size_t i = order_.size() - 1; i > 0; --i)
      std::swap(order_[i], order_[mix_seed(seed, i) % (i + 1)]);
  }

  bool hot() const { return hot_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<Design>& designs() const { return designs_; }

  /// Distinct job `j`.
  svc::JobSpec spec(std::size_t j) const {
    svc::JobSpec spec;
    spec.format = svc::DesignFormat::kPla;
    spec.options.on_error = ErrorPolicy::kBestEffort;
    if (!hot_) {
      spec.design_text =
          j < designs_.size() ? designs_[j].pla : make_design(kColdScale, seed_, j).pla;
      spec.name = strprintf("cold-%zu", j);
      spec.options.K = kPaperK[j % kGrid];
      return spec;
    }
    j = j < order_.size() ? order_[j] : j;  // the seed's order of the job list
    spec = pack_spec(j % kHotDesigns);
    spec.name = strprintf("hot-%zu", j);
    // Walk the K grid as well as the designs, so any window of jobs mixes
    // congested (high-K) and easy evaluations; each further pass over the
    // grid shifts it by 0.001 so distinct jobs never repeat a cache key.
    static_assert(std::gcd(kHotDesigns + 1, kGrid) == 1,
                  "design d's jobs must visit every K once per grid pass");
    const std::size_t grid_pass = j / (kHotDesigns * kGrid);
    spec.options.K = kPaperK[(j + j / kHotDesigns) % kGrid] + 0.001 * grid_pass;
    if (j % 3 == 2) spec.options.repair_passes = 2;
    return spec;
  }

  /// The spec a hot design is packed under (shares every dataset-key field
  /// with its jobs).
  svc::JobSpec pack_spec(std::size_t d) const {
    svc::JobSpec spec;
    spec.format = svc::DesignFormat::kPla;
    spec.design_text = designs_[d].pla;
    spec.name = designs_[d].name;
    spec.util = kHotUtil;
    spec.options.replace_mapped = false;
    spec.options.num_threads = kThreadBudget;  // the pack's match-db build
    spec.options.on_error = ErrorPolicy::kBestEffort;
    return spec;
  }

 private:
  bool hot_;
  std::uint64_t seed_;
  std::vector<Design> designs_;
  std::vector<std::size_t> order_;  ///< serve_hot: distinct job -> job of the list
};

/// Packs every hot design into `dir` and loads the store.
struct Datasets {
  std::unique_ptr<store::DatasetStore> store;
  std::uint64_t bytes = 0;
};

Datasets pack_datasets(const JobStream& stream, const std::string& dir, Tracer* tracer,
                       RunResult& result) {
  Datasets datasets;
  for (std::size_t d = 0; d < stream.designs().size(); ++d) {
    SpanScope span(tracer, "pack_job_dataset", "store.pack");
    Result<svc::PackedDataset> packed = svc::pack_job_dataset(stream.pack_spec(d), dir, 1);
    if (!packed.ok()) {
      result.fail("pack: " + packed.status().to_string());
      continue;
    }
    datasets.bytes += packed->bytes;
  }
  datasets.store = std::make_unique<store::DatasetStore>(dir);
  {
    SpanScope span(tracer, "DatasetStore::refresh", "store.load");
    datasets.store->refresh();
  }
  if (datasets.store->num_datasets() != stream.designs().size())
    result.fail(strprintf("dataset store serves %zu of %zu packed designs",
                          datasets.store->num_datasets(), stream.designs().size()));
  return datasets;
}

/// One service instance and its on-disk state. The service is declared last
/// so it stops before the cache and journal it uses go away.
struct Serving {
  std::unique_ptr<svc::ResultCache> cache;
  std::unique_ptr<svc::JobJournal> journal;
  std::unique_ptr<svc::FlowService> service;
};

Serving start_service(const std::string& dir, const store::DatasetStore* datasets) {
  Serving serving;
  serving.cache = std::make_unique<svc::ResultCache>(dir + "/cache");
  serving.journal = std::make_unique<svc::JobJournal>(dir + "/journal");
  svc::ServiceOptions options;
  options.max_parallel_jobs = kDispatchers;
  options.total_threads = kThreadBudget;
  options.cache = serving.cache.get();
  options.journal = serving.journal.get();
  options.datasets = datasets;
  serving.service = std::make_unique<svc::FlowService>(options);
  return serving;
}

struct Submission {
  std::size_t seq = 0;
  bool repeat = false;
  std::size_t distinct = 0;
  double start = 0.0;  ///< submit called
  double end = 0.0;    ///< wait returned
  std::string stem;
  svc::JobRecord record;
  double latency() const { return end - start; }
};

struct Traffic {
  std::vector<Submission> log;
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<std::string> errors;
};

/// Drives the two clients until `submissions` have been made or the clock
/// passes `deadline` (submissions in flight then still finish). Submission
/// `seq` is the same job in every call, except that the job a repeat
/// repeats is drawn from those finished so far.
Traffic drive(svc::FlowService& service, svc::JobJournal& journal, const JobStream& stream,
              std::size_t submissions, double deadline) {
  Traffic traffic;
  std::mutex mutex;
  std::size_t next_seq = 0, next_distinct = 0;
  std::vector<std::size_t> finished;

  const auto client = [&] {
    try {
      for (;;) {
        Submission sub;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (next_seq >= submissions || now_seconds() >= deadline) return;
          sub.seq = next_seq++;
          sub.repeat = stream.hot() && sub.seq % 4 == 3 && !finished.empty();
          sub.distinct = sub.repeat
                             ? finished[mix_seed(stream.seed() ^ 0x7e9ea7, sub.seq) %
                                        finished.size()]
                             : next_distinct++;
        }
        svc::JobSpec spec = stream.spec(sub.distinct);
        sub.stem = strprintf("job-%06zu", sub.seq);
        sub.start = now_seconds();
        Result<svc::JobId> id = service.submit(std::move(spec), sub.stem);
        if (!id.ok()) throw std::runtime_error(id.status().to_string());
        sub.record = service.wait(*id);
        sub.end = now_seconds();
        journal.record_published(sub.stem);  // the spool front end's publish step
        std::lock_guard<std::mutex> lock(mutex);
        if (!sub.repeat) finished.push_back(sub.distinct);
        traffic.log.push_back(std::move(sub));
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex);
      traffic.errors.push_back(e.what());
    }
  };

  const double c0 = cpu_seconds();
  const double t0 = now_seconds();
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  traffic.wall = now_seconds() - t0;
  traffic.cpu = cpu_seconds() - c0;
  std::sort(traffic.log.begin(), traffic.log.end(),
            [](const Submission& a, const Submission& b) { return a.seq < b.seq; });
  return traffic;
}

/// The serve gate: every job done, distinct jobs executed (a miss) — on
/// serve_hot from their dataset, not by the text-cold fallback — and every
/// repeat answered by the cache bit-identically to the execution it repeats.
void check_traffic(const Traffic& traffic, bool hot, RunResult& result) {
  for (const std::string& error : traffic.errors) result.fail("client: " + error);
  std::map<std::size_t, const Submission*> original;
  for (const Submission& sub : traffic.log)
    if (!sub.repeat) original[sub.distinct] = &sub;
  for (const Submission& sub : traffic.log) {
    ++result.attempted;
    const svc::JobRecord& rec = sub.record;
    if (rec.state != svc::JobState::kDone) {
      result.fail(strprintf("%s ended %s: %s", rec.name.c_str(), svc::job_state_name(rec.state),
                            rec.outcome.status.to_string().c_str()));
      continue;
    }
    if (!sub.repeat) {
      if (rec.outcome.cache_hit) result.fail(rec.name + ": a distinct job hit the cache");
      if (hot && !rec.outcome.dataset) result.fail(rec.name + ": not served from its dataset");
      continue;
    }
    const auto it = original.find(sub.distinct);
    if (!rec.outcome.cache_hit || it == original.end() ||
        metrics_json(rec.outcome.metrics) !=
            metrics_json(it->second->record.outcome.metrics))
      result.fail(rec.name + ": repeat not answered bit-identically by the cache");
  }
}

/// The QoR of the distinct jobs among the first `submissions`, summed.
struct Qor {
  double area = 0.0, wirelength = 0.0, critical = 0.0;
};

Qor qor_sum(const Traffic& traffic, std::size_t submissions) {
  Qor qor;
  for (const Submission& sub : traffic.log) {
    if (sub.repeat || sub.seq >= submissions) continue;
    const FlowMetrics& m = sub.record.outcome.metrics;
    qor.area += m.cell_area_um2;
    qor.wirelength += m.wirelength_um;
    qor.critical += m.critical_path_ns;
  }
  return qor;
}

}  // namespace

RunResult run_serve(const Config& config, bool hot) {
  RunResult result;
  const char* name = hot ? "serve_hot" : "serve_cold";
  const std::size_t per_pass = hot ? kHotSubmissions : kColdJobs;
  // Inputs first (not set-up).
  const JobStream stream(hot, config.seed, kColdJobs);

  // ---- set-up, repeated (median reported): open the cache and journal,
  // (serve_hot) pack and load the datasets, start the service. The cache and
  // journal directories are made once, outside the clock, and every set-up
  // opens them as a restarted service does: creating fresh directories on
  // an ext4 volume costs a varying ~100-400 us of the kernel's directory
  // allocation, which moved serve_cold's per-run median between 0.08 and
  // 1.1 ms. An instance that ran no job leaves them empty, so every repeat
  // does the same work.
  std::vector<double> setups;
  Datasets datasets;
  {
    Serving serving;
    const std::string dir = config.work_dir + "/setup";
    std::filesystem::create_directories(dir + "/cache");
    std::filesystem::create_directories(dir + "/journal");
    const int repeats = hot ? kHotSetupRepeats : kColdSetupRepeats;
    for (int k = 0; k < repeats; ++k) {
      // Stop the previous instance and clear its datasets outside the clock.
      serving = Serving{};
      datasets = Datasets{};
      std::filesystem::remove_all(dir + "/datasets");
      const double t0 = now_seconds();
      if (hot) datasets = pack_datasets(stream, dir + "/datasets", nullptr, result);
      serving = start_service(dir, datasets.store.get());
      setups.push_back(now_seconds() - t0);
    }
  }

  // ---- timed window: passes over the same submission sequence, each on a
  // fresh service instance with an empty cache and journal (made outside
  // the clock), until the passes have taken `seconds` (pass 0 always
  // completes). Every distinct job therefore misses the cache in every
  // pass, and serve_hot's repeats hit the results of their own pass. Each
  // submission keeps its fastest latency. The gate checks every pass, and
  // every later pass must reproduce pass 0's answers bit for bit.
  // serve_cold has no repeats in its window: after each complete pass its
  // jobs are resubmitted to that pass's service, kColdProbeRounds times
  // round robin, outside the window, and each answer must come back from
  // the cache bit-identically (every result was stored); each job keeps its
  // fastest hit.
  std::vector<double> best(per_pass, 1e300);
  std::vector<double> best_hit(hot ? 0 : kColdJobs, 1e300);
  std::vector<bool> repeat_slot(per_pass, false);
  std::map<std::size_t, FlowMetrics> answers;  // distinct job -> pass 0's metrics
  Qor qor;
  double window = 0.0, fastest_cpu = 1e300;
  std::size_t passes = 0, complete = 0, submissions = 0;
  for (std::size_t pass = 0; pass == 0 || window < config.seconds; ++pass) {
    const std::string dir = strprintf("%s/pass%zu", config.work_dir.c_str(), pass);
    std::filesystem::create_directories(dir + "/cache");
    std::filesystem::create_directories(dir + "/journal");
    {
      Serving serving = start_service(dir, datasets.store.get());
      const double deadline = pass == 0 ? 1e300 : now_seconds() + config.seconds - window;
      const Traffic traffic =
          drive(*serving.service, *serving.journal, stream, per_pass, deadline);
      ++passes;
      window += traffic.wall;
      submissions += traffic.log.size();
      check_traffic(traffic, hot, result);
      std::map<std::size_t, const Submission*> original;
      for (const Submission& sub : traffic.log) {
        best[sub.seq] = std::min(best[sub.seq], sub.latency());
        repeat_slot[sub.seq] = sub.repeat;
        if (sub.repeat || sub.record.state != svc::JobState::kDone) continue;
        original[sub.distinct] = &sub;
        const FlowMetrics& metrics = sub.record.outcome.metrics;
        if (pass == 0) {
          answers[sub.distinct] = metrics;
        } else if (!same_qor(metrics, answers[sub.distinct])) {
          result.fail(strprintf("%s: pass %zu answered %s, pass 0 %s", sub.record.name.c_str(),
                                pass, describe_qor(metrics).c_str(),
                                describe_qor(answers[sub.distinct]).c_str()));
        }
      }
      if (pass == 0) qor = qor_sum(traffic, hot ? kHotQorSubmissions : per_pass);
      if (traffic.log.size() == per_pass) {
        ++complete;
        fastest_cpu = std::min(fastest_cpu, traffic.cpu / static_cast<double>(per_pass));
        for (std::size_t n = 0; n < kColdProbeRounds * best_hit.size(); ++n) {
          const std::size_t j = n % best_hit.size();
          ++result.attempted;
          const double t0 = now_seconds();
          Result<svc::JobId> id = serving.service->submit(stream.spec(j));
          if (!id.ok()) {
            result.fail("repeat probe: " + id.status().to_string());
            continue;
          }
          const svc::JobRecord rec = serving.service->wait(*id);
          best_hit[j] = std::min(best_hit[j], now_seconds() - t0);
          const auto it = original.find(j);
          if (!rec.outcome.cache_hit || it == original.end() ||
              metrics_json(rec.outcome.metrics) !=
                  metrics_json(it->second->record.outcome.metrics))
            result.fail(strprintf("repeat probe: job %zu not answered bit-identically", j));
        }
      }
    }  // the instance stops before its files go
    std::filesystem::remove_all(dir);
  }

  std::vector<double> hits = best_hit;
  for (std::size_t s = 0; s < per_pass; ++s)
    if (repeat_slot[s]) hits.push_back(best[s]);
  const Tail tail = tail_latency(best);
  const double total_best = std::accumulate(best.begin(), best.end(), 0.0);
  result.notes.push_back(strprintf(
      "%s: %zu submissions in %zu passes (%zu complete) of %zu (%.3f s timed), %zu cache-hit "
      "slots; job_tail_ms is p%.1f of %zu submissions' fastest latencies",
      name, submissions, passes, complete, per_pass, window, hits.size(), tail.percentile,
      tail.samples));
  result.add("setup_s", median(setups), "s");
  // A closed loop without think time: throughput = clients / mean latency.
  result.add("jobs_per_s", kClients * static_cast<double>(per_pass) / total_best, "1/s");
  result.add("job_p50_ms", median(best) * 1e3, "ms");
  result.add("job_tail_ms", tail.value * 1e3, "ms");
  result.add("hit_p50_ms", median(hits) * 1e3, "ms");
  result.add("cpu_s_per_job", fastest_cpu, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("cell_area_um2", qor.area, "um2");
  result.add("wirelength_um", qor.wirelength, "um");
  result.add("critical_path_ns", qor.critical, "ns");
  return result;
}

RunResult trace_serve(const Config& config, bool hot) {
  RunResult result;
  const std::size_t count = config.trace_jobs != 0 ? config.trace_jobs : kTraceJobs;
  const JobStream stream(hot, config.seed, count);
  const Library library = lib::make_corelib();
  LayerTally tally;

  Datasets datasets;
  if (hot) datasets = pack_datasets(stream, config.work_dir + "/datasets", &tally.tracer, result);
  tally.blob_mb = static_cast<double>(datasets.bytes) * 1e-6;

  int instance = 0;
  const auto pass = [&](bool obs_on, obs::Registry::Snapshot* counters) {
    Serving serving = start_service(strprintf("%s/pass%d", config.work_dir.c_str(), instance++),
                                    datasets.store.get());
    std::unique_ptr<ObsWindow> window;
    if (obs_on) window = std::make_unique<ObsWindow>();
    Traffic traffic = drive(*serving.service, *serving.journal, stream, count, 1e300);
    if (counters != nullptr) *counters = window->delta();
    check_traffic(traffic, hot, result);
    return traffic;
  };

  // ---- the workload with obs recording on: service-side timings, flow
  // counters and the reference answers.
  const Traffic reference = pass(true, &tally.workload_counters);
  for (const Submission& sub : reference.log)
    tally.tracer.add("FlowService::submit+wait", "svc.client", sub.start, sub.end,
                     static_cast<std::uint32_t>(sub.seq + 1));
  if (!config.replay_only) {
    // Obs overhead: plain and obs-on reruns in ABBA order, twice, so a
    // linear drift of the machine's speed cancels.
    double off = 0.0, on = 0.0;
    for (int round = 0; round < 2; ++round) {
      off += pass(false, nullptr).wall;
      on += pass(true, nullptr).wall;
      on += pass(true, nullptr).wall;
      off += pass(false, nullptr).wall;
    }
    tally.overhead_pct = 100.0 * (on / off - 1.0);
  }
  for (const Submission& sub : reference.log) {
    const svc::JobOutcome& o = sub.record.outcome;
    ++tally.submissions;
    tally.cache_hits += o.cache_hit ? 1 : 0;
    tally.dataset_jobs += o.dataset ? 1 : 0;
    tally.useful_evaluations += o.cache_hit ? 0 : 1;
    tally.queue_wait_ms.push_back(o.queue_seconds * 1e3);
    tally.exec_ms.push_back(o.exec_seconds * 1e3);
    tally.handoff_ms.push_back((sub.latency() - o.queue_seconds - o.exec_seconds) * 1e3);
  }

  // ---- replay outside the service: the calls run_flow_job /
  // evaluate_job_on_context and the dispatcher make, one at a time.
  {
    const std::string dir = config.work_dir + "/replay";
    svc::ResultCache cache(dir + "/cache");
    svc::JobJournal journal(dir + "/journal");
    std::map<std::size_t, FlowMetrics> answers;  // distinct job -> served metrics
    for (const Submission& sub : reference.log)
      if (!sub.repeat) answers[sub.distinct] = sub.record.outcome.metrics;

    ObsWindow window;
    for (const Submission& sub : reference.log) {
      ++result.attempted;
      const svc::JobSpec spec = stream.spec(sub.distinct);
      const svc::JobKeys keys = svc::job_keys(spec);
      tally.tracer.set_job(static_cast<std::uint32_t>(sub.seq + 1));
      SpanScope job(&tally.tracer, sub.repeat ? "repeat_job" : "served_job", kJobLayer);
      std::optional<svc::JobOutcome> hit;
      {
        SpanScope span(&tally.tracer, "ResultCache::lookup", "svc.cache_lookup");
        hit = cache.lookup(keys.cache_key);
      }
      if (sub.repeat) {
        if (!hit || metrics_json(hit->metrics) != metrics_json(answers[sub.distinct]))
          result.fail(spec.name + ": replayed repeat not answered by the cache");
        continue;
      }
      if (hit) {
        result.fail(spec.name + ": replayed distinct job hit the cache");
        continue;
      }
      {
        SpanScope span(&tally.tracer, "JobJournal::record_accepted+dispatched", "svc.journal");
        journal.record_accepted(sub.stem, 0);
        journal.record_dispatched(sub.stem, 1);
      }
      BuiltContext built;
      std::shared_ptr<const store::LoadedDataset> dataset;
      std::shared_ptr<const MatchDatabase> database;
      const DesignContext* context = nullptr;
      if (hot) {
        dataset = datasets.store->acquire(keys.dataset_key);
        if (dataset == nullptr) {
          result.fail(spec.name + ": no dataset for its key");
          continue;
        }
        context = &dataset->context();
        database = context->match_database(spec.options.partition, spec.options.metric);
      } else {
        Result<BuiltContext> front = build_context(spec.design_text, &library, spec.util,
                                                   FloorplanRule::kJobSpec, nullptr,
                                                   &tally.tracer);
        if (!front.ok()) {
          result.fail(spec.name + ": " + front.status().to_string());
          continue;
        }
        built = std::move(*front);
        tally.base_gates += built.base_gates;
        context = built.context.get();
        database = build_database(*context, spec.options, nullptr, &tally.tracer);
      }
      const FlowRun run =
          evaluate_layers(*context, *database, spec.options, nullptr, &tally.tracer);
      tally.add_run(run);
      if (!same_qor(run.metrics, answers[sub.distinct]))
        result.fail(strprintf("%s: replay %s, service %s", spec.name.c_str(),
                              describe_qor(run.metrics).c_str(),
                              describe_qor(answers[sub.distinct]).c_str()));
      svc::JobOutcome outcome;
      outcome.metrics = answers[sub.distinct];
      {
        SpanScope span(&tally.tracer, "ResultCache::store", "svc.cache_store");
        cache.store(keys.cache_key, outcome);
      }
      {
        SpanScope span(&tally.tracer, "JobJournal::record_terminal+published", "svc.journal");
        journal.record_terminal(sub.stem, 1, svc::JobState::kDone,
                                svc::job_outcome_to_json(outcome));
        journal.record_published(sub.stem);
      }
    }
    tally.replay_counters = window.delta();
  }

  append_layer_metrics(tally, result);
  append_counter_labels(result);
  if (!config.trace_path.empty() && !tally.tracer.write_chrome_trace(config.trace_path))
    result.notes.push_back("cannot write " + config.trace_path);
  return result;
}

}  // namespace perfbench
