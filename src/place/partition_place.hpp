#pragma once
/// \file partition_place.hpp
/// Global placement by recursive bisection with Fiduccia–Mattheyses (FM)
/// min-cut refinement and terminal propagation.
///
/// This provides the "initial placement" of the technology-independent
/// netlist that drives the paper's mapper (Sec. 3), and the global placement
/// of mapped netlists before routing. Quality target is a realistic
/// clustered placement, not a production placer: connected logic ends up in
/// nearby bins, so wirelength in the mapper's cost function is meaningful.
///
/// Regions are [begin, end) ranges of one object-order array that each
/// bisection partitions stably in place. A bisection builds its local nets
/// and local incidence as CSR arrays at the front of arrays sized once for
/// the graph, so it allocates nothing (DESIGN.md §16).

#include <cstdint>

#include "place/layout.hpp"
#include "place/placement.hpp"
#include "util/cancel.hpp"

namespace cals {

class ThreadPool;

struct PlaceOptions {
  /// Stop splitting regions at or below this many movable objects.
  std::uint32_t min_bin_objects = 3;
  /// FM passes per bisection.
  std::uint32_t fm_passes = 3;
  /// Allowed deviation from a perfect area split (fraction of region area).
  double balance_tolerance = 0.1;
  /// Seed for deterministic tie-breaking.
  std::uint64_t seed = 1;
  /// Cooperative cancellation, polled before every bisection
  /// (util/cancel.hpp). Not owned; null = never cancelled. Excluded from
  /// content keys and wire formats — a runtime control, not a result knob.
  const CancelToken* cancel = nullptr;
};

/// Places all movable objects inside the die; fixed objects keep their
/// positions. Returns one point per object. Regions are bisected serially in
/// FIFO order. The trailing ThreadPool* is ignored: it remains only for
/// callers that still pass one.
Placement global_place(const PlaceGraph& graph, const Floorplan& floorplan,
                       const PlaceOptions& options = {}, ThreadPool* = nullptr);

}  // namespace cals
