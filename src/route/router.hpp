#pragma once
/// \file router.hpp
/// Congestion-driven global router: L-shape pattern routing for the initial
/// solution, then negotiated rip-up-and-reroute (PathFinder-style history
/// costs) with bounded-box maze routing for overflowed nets.
///
/// This is the library's stand-in for the detailed place&route signoff the
/// paper runs with Silicon Ensemble: its total edge overflow after
/// convergence is the "number of routing violations" reported in the tables.

#include <cstdint>
#include <memory>
#include <vector>

#include "place/placement.hpp"
#include "route/rgrid.hpp"
#include "route/steiner.hpp"
#include "util/cancel.hpp"

namespace cals {

class ThreadPool;

struct RouteOptions {
  /// Rip-up-and-reroute iterations after the initial pattern pass.
  std::uint32_t max_rrr_iterations = 12;
  /// Present-congestion penalty multiplier (grows linearly per iteration).
  double present_penalty = 1.5;
  /// History cost added per overflowed track per iteration.
  double history_increment = 0.6;
  /// Maze-search bounding-box margin in gcells (grows per iteration).
  std::int32_t bbox_margin = 8;
  /// Cooperative cancellation, polled at rip-up iteration boundaries
  /// (util/cancel.hpp). Not owned; null = never cancelled (the seed path).
  const CancelToken* cancel = nullptr;
};

struct RoutedNet {
  /// One routed path per MST segment, as a gcell walk (a..b inclusive).
  std::vector<std::vector<GCell>> paths;
  /// Routed length in gcell edges.
  std::uint64_t length = 0;
};

/// Telemetry for one rip-up-and-reroute iteration. Always recorded (a dozen
/// small structs per route() call): it shows convergence — overflow should
/// fall while the dirty set shrinks — and feeds the bench reports and the
/// obs trace counters.
struct RouteIterStats {
  std::uint64_t overflow = 0;     ///< total edge overflow entering the iteration
  std::uint32_t dirty_edges = 0;  ///< overflowed edges whose crossers were enqueued
  std::uint32_t candidates = 0;   ///< candidate segments popped from the heap
  std::uint32_t rerouted = 0;     ///< segments actually ripped up and rerouted
  std::uint64_t maze_pops = 0;    ///< A* heap pops spent on this iteration's mazes
};

struct RouteResult {
  std::vector<RoutedNet> nets;  ///< parallel to graph.nets
  std::uint64_t total_overflow = 0;
  std::uint32_t overflowed_edges = 0;
  std::uint64_t wirelength_gcells = 0;
  double wirelength_um = 0.0;
  double gcell_um = 0.0;  ///< gcell edge length, for per-net um conversions
  std::uint32_t rrr_iterations = 0;
  std::vector<RouteIterStats> iter_stats;  ///< one entry per rip-up iteration
  bool routable() const { return total_overflow == 0; }
};

/// An incremental routing session over one (grid, graph) pair — the public
/// face of the dirty-set machinery the negotiated router already runs on.
/// Usage: construct (clears the grid's usage and history), run() the full
/// initial route, then any number of
///   invalidate_nets(dirty, placement)  — rip up the listed nets and rebuild
///                                        their topology from the (possibly
///                                        moved) pin positions, then
///   reroute_dirty(max_iterations)      — route the rebuilt segments and
///                                        resume the negotiation over the
///                                        dirty set, refreshing result().
/// Between calls the session keeps the grid usage, PathFinder history and
/// the escalation schedule (round counter), so repeated repair passes
/// converge instead of renegotiating from scratch. The congestion repair
/// loop (cals::rcm) drives exactly this cycle after each batch of cell
/// moves. The session is single-threaded and deterministic.
class Router {
 public:
  /// Builds the session and clears `grid` (usage + history), exactly as the
  /// one-shot route() entry point always has. `options` is copied; `graph`
  /// and `grid` must outlive the session. The trailing ThreadPool* is
  /// ignored: it remains only for callers that still pass one.
  Router(RoutingGrid& grid, const PlaceGraph& graph, const Placement& placement,
         const RouteOptions& options = {}, ThreadPool* = nullptr);
  ~Router();
  Router(Router&&) noexcept;
  Router& operator=(Router&&) noexcept;

  /// The full initial route (pattern pass + negotiated rip-up). Call once,
  /// before any invalidate/reroute cycle.
  void run();

  /// Rips up every listed net (duplicates tolerated) and rebuilds its MST
  /// topology from `placement` — the entry point after cell moves. The nets
  /// stay unrouted until the next reroute_dirty().
  void invalidate_nets(const std::vector<std::uint32_t>& nets, const Placement& placement);

  /// Routes all invalidated segments, then resumes rip-up negotiation for up
  /// to `max_iterations` rounds (stops early at zero overflow or stalled
  /// progress) and refreshes result().
  void reroute_dirty(std::uint32_t max_iterations);

  /// The current solution: valid after run(), refreshed by reroute_dirty().
  const RouteResult& result() const;
  /// Moves the result out (the session is done being queried).
  RouteResult take();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Routes every hypernet of `graph` at `placement` onto `grid`.
/// The grid's usage is left at the final solution so congestion maps can be
/// derived from it afterwards.
///
/// Equivalent to `Router(...).run()` + take(): the one-shot entry point and
/// the incremental session share one implementation. The trailing
/// ThreadPool* is ignored, as in Router's constructor.
RouteResult route(RoutingGrid& grid, const PlaceGraph& graph, const Placement& placement,
                  const RouteOptions& options = {}, ThreadPool* = nullptr);

}  // namespace cals
