#pragma once
/// \file flow.hpp
/// The paper's modified ASIC design flow (Fig. 3):
///
///   tech-independent netlist --> initial placement  (once per floorplan)
///        |                            |
///        v                            v
///   congestion-aware technology mapping (K)        <──┐
///        |                                            │ raise K
///        v                                            │
///   global placement + routing --> congestion map ────┘ until acceptable
///
/// DesignContext owns the per-floorplan state (base network, its lowering,
/// the initial placement); FlowRun is one K evaluation.
///
/// K sweeps reuse and parallelize where work is independent (DESIGN.md §6):
///  * the K-independent matching front end (subject forest + per-vertex match
///    candidates) is memoized per {partition, metric} inside DesignContext;
///  * sweep_evaluations runs whole evaluations side by side: the K windows of
///    congestion_aware_flow, the row windows of find_min_routable_rows and
///    the paper's K-grid tables.
/// One evaluation runs on its caller's thread. Every FlowOptions::num_threads
/// value produces the same covers, areas, wirelengths and critical paths as
/// num_threads=1.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "flow/metrics.hpp"
#include "library/library.hpp"
#include "map/mapper.hpp"
#include "netlist/base_network.hpp"
#include "place/legalize.hpp"
#include "place/partition_place.hpp"
#include "place/refine.hpp"
#include "rcm/rcm.hpp"
#include "route/congestion.hpp"
#include "route/router.hpp"
#include "timing/sta.hpp"
#include "util/status.hpp"

namespace cals {

/// What a guarded evaluation does with an exception thrown mid-phase (a
/// fault injection, a captured pool-task failure, bad_alloc, ...).
enum class ErrorPolicy : std::uint8_t {
  kPropagate,   ///< rethrow — the legacy behavior (callers crash loudly)
  kBestEffort,  ///< capture into FlowResult::status and return partial results
};

struct FlowOptions {
  double K = 0.0;
  PartitionStrategy partition = PartitionStrategy::kPlacementDriven;
  MapObjective objective = MapObjective::kArea;
  DistanceMetric metric = DistanceMetric::kManhattan;
  /// Ablation switch, see CoverOptions::transitive_wire_cost.
  bool transitive_wire_cost = false;
  /// Run global placement on the mapped netlist (the "Global placement and
  /// congestion map" box of Fig. 3). Set false to keep the mapper's
  /// center-of-mass seed positions instead (cheaper, slightly worse; used
  /// by the incremental-update ablation).
  bool replace_mapped = true;
  /// Detailed-placement refinement passes after legalization (0 = off, the
  /// paper's configuration; see place/refine.hpp).
  std::uint32_t refine_passes = 0;
  /// Evaluations a sweep (congestion_aware_flow's K windows,
  /// find_min_routable_rows' row windows) runs at once: the `width` of
  /// sweep_evaluations. 0 = one per hardware thread; 1 = one after another
  /// on the caller's thread. A single evaluation ignores it. Results are
  /// bit-identical for every value.
  std::uint32_t num_threads = 0;
  // ---- guardrails (DESIGN.md §9) — defaults reproduce the seed flow ------
  /// Wall-clock budget per phase (map / place / route / STA), in seconds.
  /// Checked at phase boundaries (phases are not preempted): the first phase
  /// to finish over budget stops the evaluation with kBudgetExceeded and the
  /// artifacts built so far. 0 = unlimited.
  double phase_time_budget_s = 0.0;
  /// Overrides RouteOptions::max_rrr_iterations when nonzero, so a caller
  /// can bound a non-converging router without rebuilding route options.
  std::uint32_t max_route_iters = 0;
  // ---- congestion repair (cals::rcm, DESIGN.md §15) ----------------------
  /// Post-route repair passes (move -> Abacus legalize -> incremental
  /// reroute) run on overflowed results before STA. 0 = off, the default:
  /// the repair-off flow is bit-identical to the seed flow. The knobs below
  /// only shape results when this is nonzero, which is also when they enter
  /// the job cache key (svc::canonical_job_options).
  std::uint32_t repair_passes = 0;
  /// Candidate-search window radius around a moved cell's pin median, gcells.
  std::uint32_t repair_window = 8;
  /// Cells moved per repair pass.
  std::uint32_t repair_max_cells = 64;
  /// Exception policy for run_checked / congestion_aware_flow. Plain run()
  /// always propagates.
  ErrorPolicy on_error = ErrorPolicy::kPropagate;
  /// Cooperative cancellation + deadline token (util/cancel.hpp), polled at
  /// phase boundaries and inside each phase's iteration loop (mapper DP,
  /// placer bisections, router rip-up iterations, STA propagation). A fired
  /// token unwinds as CancelledError; run_checked under kBestEffort maps it
  /// to the typed kCancelled / kDeadlineExceeded status with the partial
  /// artifacts built so far.
  /// Not owned; null (the default) is checked with a single branch — the
  /// no-token path is bit-identical to the seed flow, and the field is
  /// excluded from content keys and wire formats.
  const CancelToken* cancel = nullptr;
  PlaceOptions place;
  RouteOptions route;
  RGridOptions rgrid;
};

/// One full evaluation at a given K: the mapped netlist and every physical
/// design artifact derived from it — everything a front end reports, so no
/// front end routes again to draw a map.
struct FlowRun {
  MapResult map;
  MappedPlaceBinding binding;
  Placement placement;
  LegalizeResult legalization;
  RouteResult route;
  /// The congestion map of the shipped routing (post-repair when repair
  /// ran): what Fig. 3's "Is congestion OK?" diamond inspects.
  CongestionMap congestion;
  StaResult sta;
  FlowMetrics metrics;
  // Populated only when FlowOptions::repair_passes != 0 (default-empty
  // otherwise, so repair-off FlowRuns are unchanged): the repair telemetry
  // and the map before repair, i.e. the map a repair-off run ships as
  // `congestion` (cals_flow --congestion-csv writes the pre/post pair).
  rcm::RepairStats repair;
  CongestionMap congestion_pre;
};

/// The flow's phases, in execution order. `FlowResult::phases_completed`
/// counts how many finished, so kMap..kSta double as progress markers.
enum class FlowPhase : std::uint8_t { kMap = 0, kPlace, kRoute, kSta };
constexpr std::uint32_t kNumFlowPhases = 4;
const char* flow_phase_name(FlowPhase phase);

/// A guarded evaluation: `run` holds whatever artifacts were built before
/// the status turned non-OK (all of them when status.ok()). On
/// kBudgetExceeded / kInternal, members of `run` past `phases_completed`
/// are default-constructed — metrics from completed phases are filled.
struct FlowResult {
  Status status;
  FlowRun run;
  std::uint32_t phases_completed = 0;  ///< 0..kNumFlowPhases
  bool ok() const { return status.ok(); }
};

/// Per-floorplan context: builds the technology-independent placement once
/// (the paper stresses this is generated a single time) and serves any
/// number of mapping evaluations against it, from any number of threads.
class DesignContext {
 public:
  DesignContext(BaseNetwork net, const Library* library, Floorplan floorplan,
                PlaceOptions place_options = {});

  /// Deserialized context state (store/dataset.cpp): the compact network with
  /// fanouts built, plus the initial placement computed at pack time. The
  /// precompiled constructor adopts these verbatim — no compact, no
  /// lowering, no global placement — so a dataset-served context is
  /// bit-identical to the pack-time one without redoing any of its work.
  struct PrecompiledParts {
    BaseNetwork net;
    const Library* library = nullptr;
    Floorplan floorplan;
    std::vector<Point> node_positions;
    double base_hpwl = 0.0;
  };
  explicit DesignContext(PrecompiledParts parts);

  /// Installs a prebuilt match database for its {partition, metric} slot
  /// (replacing any existing entry) so dataset-served runs skip
  /// build_match_database entirely. Thread-safe.
  void seed_match_database(std::shared_ptr<const MatchDatabase> db) const;

  const BaseNetwork& network() const { return net_; }
  const Library& library() const { return *library_; }
  const Floorplan& floorplan() const { return floorplan_; }
  /// Initial-placement coordinate per network node (pads for PIs).
  const std::vector<Point>& node_positions() const { return node_positions_; }
  /// HPWL of the technology-independent placement (diagnostics).
  double base_hpwl() const { return base_hpwl_; }

  /// Maps at options.K and runs the physical design evaluation on the
  /// calling thread. Safe to call concurrently (all per-run state is local;
  /// the match cache is internally synchronized).
  FlowRun run(const FlowOptions& options) const;

  /// run() with the guardrails engaged: phase budgets are enforced at phase
  /// boundaries and (under ErrorPolicy::kBestEffort) exceptions become
  /// FlowResult::status instead of propagating. With default guardrail
  /// options and no armed faults the produced FlowRun is bit-identical to
  /// run()'s.
  FlowResult run_checked(const FlowOptions& options) const;

  /// The physical half of an evaluation on a netlist mapped elsewhere (a
  /// buffered copy of a run's netlist, say): lower -> place or seed ->
  /// legalize -> refine -> route -> repair -> STA against this context's
  /// floorplan, with run_checked's guardrails. run_checked is map + this, so
  /// implement(run.map, options) reproduces `run`. The metrics' cell count
  /// and area come from `mapped.stats`: a caller that edits the netlist
  /// updates them. The netlist's library must outlive the returned run.
  FlowResult implement(MapResult mapped, const FlowOptions& options) const;

  /// The memoized K-independent matching front end for {partition, metric}:
  /// built on first use, under the context's lock, so concurrent first calls
  /// build it once; then shared by every subsequent run. Thread-safe.
  std::shared_ptr<const MatchDatabase> match_database(PartitionStrategy partition,
                                                      DistanceMetric metric) const;

 private:
  BaseNetwork net_;
  const Library* library_;
  Floorplan floorplan_;
  std::vector<Point> node_positions_;
  double base_hpwl_ = 0.0;

  FlowRun run_impl(const FlowOptions& options, FlowResult* checked) const;
  /// Every phase after mapping, on run.map; shared by run_impl and
  /// implement. A null `checked` (plain run()) enforces no budget.
  void implement_phases(FlowRun& run, const FlowOptions& options,
                        FlowResult* checked) const;

  mutable std::mutex mutex_;
  mutable std::map<std::pair<int, int>, std::shared_ptr<const MatchDatabase>> match_dbs_;
};

/// The flow's one parallel grain: runs evaluate(i) for i in [0, count), at
/// most `width` at a time (0 = ThreadPool::hardware_threads()), and hands
/// each result to take(i, result) in index order until take returns false.
/// Evaluations run in windows of `width` on a pool of min(width, count)
/// workers, made for the call; a window of one runs on the calling thread,
/// so width 1 never starts a thread. Stopping discards the rest of the
/// current window (at most width - 1 evaluations past the stop). An
/// exception thrown by evaluate reaches the caller once its window is done.
/// evaluate may run on several threads at once; take runs on the calling
/// thread.
void sweep_evaluations(std::size_t count, std::uint32_t width,
                       const std::function<FlowResult(std::size_t)>& evaluate,
                       const std::function<bool(std::size_t, FlowResult&)>& take);

/// The Fig. 3 iteration: evaluates the K schedule in order and stops at the
/// first netlist whose congestion map is acceptable; keeps all runs for
/// reporting. If none is acceptable, `chosen` is the run with the fewest
/// violations (the designer would then add routing resources).
/// The schedule runs through sweep_evaluations at options.num_threads, so
/// points past the convergence K in its last window are speculative extra
/// work; runs/chosen/converged are identical to the serial result.
/// `status` summarizes the iteration for callers that degrade gracefully:
/// OK when converged; kInfeasible (with best-effort overflow diagnostics in
/// the message) when the schedule is exhausted without a routable K;
/// kBudgetExceeded / kInternal when a guarded evaluation stopped early —
/// `runs` then ends with that evaluation's partial artifacts. Callers that
/// predate the status field can keep reading runs/chosen/converged: with
/// default guardrail options the fields are exactly the seed flow's.
struct FlowIterationResult {
  std::vector<FlowRun> runs;
  std::size_t chosen = 0;
  bool converged = false;
  Status status;
};
FlowIterationResult congestion_aware_flow(const DesignContext& context,
                                          const std::vector<double>& k_schedule,
                                          FlowOptions options = {});

/// The schedule a run with no fixed K walks (`cals_flow --k auto`, auto_k
/// jobs): min-area first, then K raised until the map is acceptable.
inline const std::vector<double> kAutoKSchedule = {0.0, 0.025, 0.05, 0.1, 0.25, 0.5};

/// Refines the K found by the schedule: bisects between the last unroutable
/// K (`k_low`) and a routable K (`k_high`) to find the cheapest-area netlist
/// that still routes. The paper's empirical rule is to keep the area penalty
/// "within a few percent of the minimum area solution"; this automates it.
/// Returns the best routable run found (the run at `k_high` if bisection
/// never improves on it). The probes run one after another, so
/// `evaluations` is always iterations + 1.
struct KRefineResult {
  FlowRun best;
  double k = 0.0;
  std::uint32_t evaluations = 0;
};
KRefineResult refine_k(const DesignContext& context, double k_low, double k_high,
                       std::uint32_t iterations = 4, FlowOptions options = {});

/// Grows the floorplan row count until the design routes without violations
/// (how the paper finds "chip area / no. of rows" in Tables 3 and 5).
/// Candidate row counts run through sweep_evaluations at
/// options.num_threads, each with its own floorplan and context, and are
/// scanned in order: the returned rows/run are identical to the serial
/// search.
struct RowSearchResult {
  std::uint32_t rows = 0;
  bool found = false;
  FlowRun run;  ///< the run at the final row count
};
RowSearchResult find_min_routable_rows(const BaseNetwork& net, const Library& library,
                                       const FlowOptions& options,
                                       std::uint32_t start_rows, std::uint32_t max_rows,
                                       PlaceOptions place_options = {});

}  // namespace cals
