/// kloop_cliff — the paper's Fig. 3 loop the way `cals_flow --k auto` runs
/// it: one caller, one design at a time; per design parse + synthesize,
/// build the DesignContext, then congestion_aware_flow over the --k auto
/// schedule with the paper calibration.
///
/// The timed loop runs serially (num_threads=1): on a shared 4-vCPU guest
/// the two-thread loop's job_p50_ms moved by ~20% between runs of one seed
/// (serial: ~5%), and it was no faster than the serial loop. The
/// traced run measures the parallel paths — SoA match pricing, K-window
/// speculation, region-parallel rip-up — at two threads, and its
/// thread-scaling diagnostic times T = 1, 2 and 4. (Speculative FM bisection
/// never runs in this loop: the mapped netlist keeps its seed placement and
/// the DesignContext constructor places the base network serially.)

#include <algorithm>
#include <memory>
#include <numeric>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "sop/pla_io.hpp"
#include "svc/job.hpp"
#include "svc/result_cache.hpp"
#include "util/strings.hpp"

#include "checks.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cals;

namespace {

// Calibration (NOTES.md): scale 0.35 (~8.7k base gates) with the die sized
// to utilization 0.86 puts every design just below its routability cliff:
// the K=0 netlist needs rip-up-and-reroute but routes. At 0.875 about 3% of
// designs fall off the cliff and need further K evaluations at up to 10x
// the loop cost; those rare loops alone moved jobs_per_s by ~25% between
// seeds. From ~0.885 the legalizer starts to spill cells on some designs (an
// illegal placement the gate rejects).
constexpr double kScale = 0.35;
constexpr double kUtil = 0.86;
constexpr std::uint32_t kThreads = 1;
/// The parallel-path counters, the replay and the T=2 scaling row.
constexpr std::uint32_t kParallelThreads = 2;
/// The designs of one run. Loops take ~0.1 s, so a pass over them takes
/// ~5 s; the QoR sums cover them all (pass 0).
constexpr std::size_t kDesigns = 48;
constexpr std::size_t kTraceDesigns = 16;
/// Repeat-probe reads after each loop (outside the clock).
constexpr std::size_t kProbeReadsPerLoop = 4;
const std::vector<double> kSchedule = {0.0, 0.025, 0.05, 0.1, 0.25, 0.5};

struct Loop {
  std::unique_ptr<DesignContext> context;
  FlowIterationResult flow;
};

std::unique_ptr<ThreadPool> make_pool(std::uint32_t threads) {
  return threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

/// One design's loop, built the way cals_flow builds it: parse, synthesize,
/// then the DesignContext constructor on the calibrated floorplan.
Result<Loop> run_loop(const Design& design, const Library& library, std::uint32_t threads) {
  Result<Pla> pla = parse_pla_string(design.pla);
  if (!pla.ok()) return pla.status();
  BaseNetwork net = synthesize_base(*pla);
  const Floorplan floorplan =
      size_floorplan(net.num_base_gates(), kUtil, FloorplanRule::kExact, library.tech());
  Loop loop;
  loop.context = std::make_unique<DesignContext>(std::move(net), &library, floorplan);
  loop.flow = congestion_aware_flow(*loop.context, kSchedule, paper_options(threads));
  return loop;
}

/// A loop that exhausts its schedule answers kInfeasible — still an answer.
bool loop_answered(const FlowIterationResult& flow) {
  return !flow.runs.empty() &&
         (flow.status.ok() || flow.status.code() == ErrorCode::kInfeasible);
}

/// One loop of the traced run, timed, with its chosen answer.
struct Timed {
  double wall = 0.0;
  double cpu = 0.0;
  FlowMetrics chosen;
  std::uint64_t evaluations = 0;  ///< K evaluations the serial loop needs
};

Timed timed_loop(const Design& design, const Library& library, std::uint32_t threads,
                 RunResult& result) {
  Timed timed;
  const double c0 = cpu_seconds();
  const double t0 = now_seconds();
  Result<Loop> loop = run_loop(design, library, threads);
  timed.wall = now_seconds() - t0;
  timed.cpu = cpu_seconds() - c0;
  if (!loop.ok() || !loop_answered(loop->flow)) {
    result.fail(design.name + ": K loop failed");
    return timed;
  }
  timed.chosen = loop->flow.runs[loop->flow.chosen].metrics;
  timed.evaluations = loop->flow.runs.size();
  return timed;
}

}  // namespace

RunResult run_kloop(const Config& config) {
  RunResult result;
  std::vector<Design> designs;
  for (std::size_t i = 0; i < kDesigns; ++i)
    designs.push_back(make_design(kScale, config.seed, i));

  // ---- set-up: the library, as cals_flow builds it (each design's worker
  // pool is the flow's own). The build is sampled again after every loop,
  // outside the clock, and setup_s is the median of all samples.
  // Back-to-back builds take ~4 ms in all, inside one of the guest's speed
  // states (NOTES.md, Hardware): their per-run median flipped between ~16
  // and ~28 us, and two ten-seed medians differed by 37%. Samples spread
  // over the window see its mix of states, and each starts, as a process's
  // one build does, from caches the loop and its gate left cold.
  std::vector<double> setups;
  const double s0 = now_seconds();
  const auto library = std::make_unique<const Library>(lib::make_corelib());
  setups.push_back(now_seconds() - s0);

  // ---- timed window: passes over the design set, each design's loop timed
  // on its own, until the loops have taken `seconds` (pass 0 always
  // completes). Odd passes run the designs in reverse order, so a drift of
  // the machine's speed does not always meet the same designs. Each design
  // keeps its fastest loop. The gate after each loop is excluded from the
  // clock: pass 0 checks the chosen netlist, later passes must reproduce
  // pass 0's answer bit for bit.
  std::vector<double> best_wall(kDesigns, 1e300), best_cpu(kDesigns, 1e300);
  std::vector<FlowMetrics> answers(kDesigns);
  // The repeat probe (hit_p50_ms). cals_flow has no result cache, but every
  // workload reports hit_p50_ms: this one is a ResultCache microbenchmark.
  // Pass 0 stores each converged loop's chosen run under the service's key
  // for that K evaluation (svc::job_keys). After every loop, outside the
  // clock, the next kProbeReadsPerLoop stored repeats (round robin) key
  // their job and look it up, as FlowService::submit does; each keeps its
  // fastest read. Reads spread over the window meet the guest's faster
  // speed states (NOTES.md, Hardware); back-to-back reads at its end moved
  // the per-run median by ~20% between seeds.
  svc::ResultCache cache(config.work_dir + "/cache");
  std::vector<std::pair<std::string, FlowMetrics>> probe;  // converged: design, answer
  std::vector<double> hits;
  std::size_t next_read = 0;
  double area = 0.0, wirelength = 0.0, critical = 0.0;
  double timed = 0.0;
  std::size_t loops = 0, passes = 0;
  for (std::size_t pass = 0; pass == 0 || timed < config.seconds; ++pass) {
    ++passes;
    for (std::size_t k = 0; k < kDesigns && (pass == 0 || timed < config.seconds); ++k) {
      const std::size_t i = pass % 2 == 0 ? k : kDesigns - 1 - k;
      const Design& design = designs[i];
      ++result.attempted;
      ++loops;
      const double c0 = cpu_seconds();
      const double t0 = now_seconds();
      double gate_wall = 0.0, gate_cpu = 0.0;
      {
        Result<Loop> loop = run_loop(design, *library, kThreads);
        const double g0 = now_seconds();
        const double gc0 = cpu_seconds();
        if (!loop.ok() || !loop_answered(loop->flow)) {
          result.fail(design.name + ": " +
                      (loop.ok() ? loop->flow.status.to_string() : loop.status().to_string()));
        } else if (pass > 0) {
          const FlowMetrics& chosen = loop->flow.runs[loop->flow.chosen].metrics;
          if (!same_qor(chosen, answers[i]))
            result.fail(strprintf("%s: pass %zu chose %s, pass 0 chose %s", design.name.c_str(),
                                  pass, describe_qor(chosen).c_str(),
                                  describe_qor(answers[i]).c_str()));
        } else {
          const FlowRun& chosen = loop->flow.runs[loop->flow.chosen];
          const DesignContext& context = *loop->context;
          const std::string why =
              check_run(design.name, context.network(), context.floorplan(),
                        paper_options(kThreads).rgrid, chosen, mix_seed(config.seed, ~i));
          if (!why.empty()) result.fail(why);
          answers[i] = chosen.metrics;
          area += chosen.metrics.cell_area_um2;
          wirelength += chosen.metrics.wirelength_um;
          critical += chosen.metrics.critical_path_ns;
          // The cache keeps only OK outcomes, so only converged loops are probed.
          if (loop->flow.converged) {
            svc::JobSpec spec;
            spec.design_text = design.pla;
            spec.util = kUtil;
            spec.options = paper_options(kThreads);
            spec.options.K = chosen.metrics.k_factor;
            svc::JobOutcome outcome;
            outcome.metrics = chosen.metrics;
            cache.store(svc::job_keys(spec).cache_key, outcome);
            probe.emplace_back(design.pla, chosen.metrics);
            hits.push_back(1e300);
          }
        }
        for (std::size_t n = 0; n < kProbeReadsPerLoop && !probe.empty(); ++n) {
          const std::size_t r = next_read++ % probe.size();
          svc::JobSpec spec;
          spec.design_text = probe[r].first;
          spec.util = kUtil;
          spec.options = paper_options(kThreads);
          spec.options.K = probe[r].second.k_factor;
          ++result.attempted;
          const double h0 = now_seconds();
          const std::string key = svc::job_keys(spec).cache_key;
          const std::optional<svc::JobOutcome> hit = cache.lookup(key);
          hits[r] = std::min(hits[r], now_seconds() - h0);
          if (!hit || metrics_json(hit->metrics) != metrics_json(probe[r].second))
            result.fail("repeat probe: cached loop answer differs for key " + key);
        }
        const double b0 = now_seconds();
        { const Library sample = lib::make_corelib(); }
        setups.push_back(now_seconds() - b0);
        gate_wall = now_seconds() - g0;
        gate_cpu = cpu_seconds() - gc0;
      }  // the design is freed inside the clock
      const double wall = now_seconds() - t0 - gate_wall;
      timed += wall;
      best_wall[i] = std::min(best_wall[i], wall);
      best_cpu[i] = std::min(best_cpu[i], cpu_seconds() - c0 - gate_cpu);
    }
  }

  const Tail tail = tail_latency(best_wall);
  const double total_best = std::accumulate(best_wall.begin(), best_wall.end(), 0.0);
  result.notes.push_back(strprintf(
      "kloop_cliff: %zu loops in %zu passes over %zu designs (%.3f s timed), job_tail_ms is "
      "p%.1f of %zu designs' fastest loops; %zu repeats probed %zu times",
      loops, passes, kDesigns, timed, tail.percentile, tail.samples, hits.size(), next_read));
  result.add("setup_s", median(setups), "s");
  result.add("jobs_per_s", static_cast<double>(kDesigns) / total_best, "1/s");
  result.add("job_p50_ms", median(best_wall) * 1e3, "ms");
  result.add("job_tail_ms", tail.value * 1e3, "ms");
  std::vector<double> read;  // repeats read at least once
  for (const double h : hits)
    if (h < 1e300) read.push_back(h);
  result.add("hit_p50_ms", median(read) * 1e3, "ms");
  result.add("cpu_s_per_job",
             std::accumulate(best_cpu.begin(), best_cpu.end(), 0.0) /
                 static_cast<double>(kDesigns),
             "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("cell_area_um2", area, "um2");
  result.add("wirelength_um", wirelength, "um");
  result.add("critical_path_ns", critical, "ns");
  return result;
}

RunResult trace_kloop(const Config& config) {
  RunResult result;
  const std::uint32_t replay_threads = config.threads != 0 ? config.threads : kParallelThreads;
  const std::size_t count = config.trace_jobs != 0 ? config.trace_jobs : kTraceDesigns;
  std::vector<Design> designs;
  for (std::size_t i = 0; i < count; ++i) designs.push_back(make_design(kScale, config.seed, i));
  const Library library = lib::make_corelib();
  LayerTally tally;

  // ---- congestion_aware_flow with obs recording on, at two threads: the
  // parallel-path counters (speculation, rip-up plans, pool) and the
  // reference answers the replay must reproduce.
  std::vector<FlowMetrics> reference;
  {
    ObsWindow window;
    for (const Design& design : designs) {
      const Timed timed = timed_loop(design, library, kParallelThreads, result);
      reference.push_back(timed.chosen);
      tally.useful_evaluations += timed.evaluations;
    }
    tally.workload_counters = window.delta();
  }

  if (!config.replay_only) {
    // Obs overhead (the workload with obs off vs on) and the thread-scaling
    // diagnostic (T = 1, 2, 4; not gated). Every design runs under every
    // arm in rotating order, so drift of the machine's speed hits all arms
    // alike.
    struct Arm {
      std::uint32_t threads;
      bool obs;
      double wall = 0.0, cpu = 0.0;
    };
    Arm arms[] = {{kThreads, false}, {kThreads, true}, {2, false}, {4, false}};
    constexpr std::size_t kArms = sizeof(arms) / sizeof(arms[0]);
    for (std::size_t i = 0; i < designs.size(); ++i) {
      for (std::size_t a = 0; a < kArms; ++a) {
        Arm& arm = arms[(i + a) % kArms];
        std::unique_ptr<ObsWindow> window;
        if (arm.obs) window = std::make_unique<ObsWindow>();
        const Timed timed = timed_loop(designs[i], library, arm.threads, result);
        arm.wall += timed.wall;
        arm.cpu += timed.cpu;
        if (!same_qor(timed.chosen, reference[i]))
          result.fail(strprintf("%s: T=%u%s answer %s differs from %s", designs[i].name.c_str(),
                                arm.threads, arm.obs ? " obs-on" : "",
                                describe_qor(timed.chosen).c_str(),
                                describe_qor(reference[i]).c_str()));
      }
    }
    tally.overhead_pct = 100.0 * (arms[1].wall / arms[0].wall - 1.0);
    for (const std::size_t a : {0, 2, 3})
      result.notes.push_back(strprintf(
          "thread scaling: T=%u jobs_per_s=%.4f cpu_s_per_job=%.4f", arms[a].threads,
          static_cast<double>(count) / arms[a].wall, arms[a].cpu / static_cast<double>(count)));
  }

  // ---- serial replay, layer by layer, in schedule order, with the worker
  // pool a two-thread congestion_aware_flow gives each call.
  {
    const auto pool = make_pool(replay_threads);
    ObsWindow window;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      ++result.attempted;
      tally.tracer.set_job(static_cast<std::uint32_t>(i + 1));
      SpanScope job(&tally.tracer, "kloop_job", kJobLayer);
      Result<BuiltContext> built = build_context(designs[i].pla, &library, kUtil,
                                                 FloorplanRule::kExact, nullptr,
                                                 &tally.tracer);
      if (!built.ok()) {
        result.fail(designs[i].name + ": " + built.status().to_string());
        continue;
      }
      tally.base_gates += built->base_gates;
      FlowOptions options = paper_options(replay_threads);
      const auto database = build_database(*built->context, options, pool.get(), &tally.tracer);
      FlowMetrics chosen;
      std::uint64_t best = UINT64_MAX;
      for (const double k : kSchedule) {
        options.K = k;
        const FlowRun run =
            evaluate_layers(*built->context, *database, options, pool.get(), &tally.tracer);
        tally.add_run(run);
        if (run.metrics.routing_violations < best) {
          best = run.metrics.routing_violations;
          chosen = run.metrics;
        }
        if (run.metrics.routing_violations == 0) break;
      }
      if (!same_qor(chosen, reference[i]))
        result.fail(strprintf("%s: replay chose %s, congestion_aware_flow chose %s",
                              designs[i].name.c_str(), describe_qor(chosen).c_str(),
                              describe_qor(reference[i]).c_str()));
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
