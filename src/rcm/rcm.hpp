#pragma once
/// \file rcm.hpp
/// `cals::rcm` — congestion-driven cell-move repair (DESIGN.md §15).
///
/// The paper's only congestion lever is the mapper's K factor: once covering
/// is done, overflowed gcells stay overflowed. This subsystem closes that
/// gap after routing with a bounded move→legalize→reroute loop:
///
///  1. SELECT: score overflowed gcells from the grid's edge overflow and
///     pick the cells inside them by congestion weight x movability
///     (narrow cells move cheapest).
///  2. MOVE: relocate each selected cell toward the lowest-cost gcell
///     within a bounded window around the median of its connected pins,
///     pricing candidates by congestion-penalized HPWL. Moves respect row
///     capacity, so the subsequent legalization always succeeds.
///  3. LEGALIZE: re-legalize only the affected rows with the Abacus
///     cluster-collapse legalizer (rcm/abacus.hpp) — the flow-wide Tetris
///     legalizer would re-place the whole die for a handful of moves.
///  4. REROUTE: invalidate exactly the nets whose pins moved and resume the
///     router's negotiation through the incremental session API
///     (Router::invalidate_nets + Router::reroute_dirty).
///
/// The loop repeats until overflow stops improving or the pass budget is
/// hit; a pass that makes things worse is rolled back (positions restored,
/// nets rerouted once more) so repair degrades to approximately the
/// unrepaired result instead of shipping a regression.
///
/// Determinism: every set in the loop is an explicitly ordered vector
/// (gcells by score then index, cells by score then id, nets ascending),
/// all arithmetic is straight-line double math, and the router is serial,
/// so repair-on results do not depend on the thread count.

#include <cstdint>
#include <vector>

#include "place/layout.hpp"
#include "place/placement.hpp"
#include "route/rgrid.hpp"
#include "route/router.hpp"
#include "util/cancel.hpp"

namespace cals::rcm {

struct RepairOptions {
  /// Move→legalize→reroute passes (0 disables repair entirely).
  std::uint32_t passes = 1;
  /// Candidate-search window radius around the median point, in gcells.
  std::uint32_t window = 8;
  /// Cells moved per pass, budget over the whole die.
  std::uint32_t max_cells = 64;
  /// Rip-up negotiation rounds granted to each pass's incremental reroute.
  std::uint32_t reroute_iterations = 8;
  /// Cooperative cancellation, polled at pass boundaries. Not owned.
  const CancelToken* cancel = nullptr;
};

/// Telemetry for one repair pass.
struct RepairPassStats {
  std::uint64_t overflow_before = 0;  ///< total edge overflow entering the pass
  std::uint64_t overflow_after = 0;   ///< after the pass's reroute
  std::uint32_t cells_moved = 0;      ///< cells actually relocated
  std::uint32_t nets_rerouted = 0;    ///< nets invalidated and rerouted
  bool reverted = false;              ///< pass regressed and was rolled back
};

struct RepairStats {
  std::uint32_t passes_run = 0;
  std::uint32_t cells_moved = 0;        ///< total across passes
  std::uint64_t overflow_before = 0;    ///< entering pass 1
  std::uint64_t overflow_after = 0;     ///< after the final pass
  std::vector<RepairPassStats> passes;  ///< one entry per executed pass

  std::uint64_t overflow_removed() const {
    return overflow_before > overflow_after ? overflow_before - overflow_after : 0;
  }
};

/// Runs the repair loop against a routed session. `router` must have
/// completed run() on (`grid`, `graph`, `placement`); `placement` is updated
/// in place (legal on return — every touched row is re-legalized) and the
/// router's result() reflects the final routing. The grid is read for
/// congestion scoring and written through the router's reroutes.
RepairStats repair(Router& router, const RoutingGrid& grid, const PlaceGraph& graph,
                   const Floorplan& floorplan, Placement& placement,
                   const RepairOptions& options);

}  // namespace cals::rcm
