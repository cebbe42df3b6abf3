#pragma once
/// \file congestion.hpp
/// Congestion map derived from routed grid usage — the artifact the paper's
/// modified design flow (Fig. 3) inspects to decide whether to raise K.

#include <cstdint>
#include <string>
#include <vector>

#include "route/rgrid.hpp"

namespace cals {

struct CongestionStats {
  std::uint64_t total_overflow = 0;   ///< "routing violations"
  std::uint32_t overflowed_edges = 0;
  double max_utilization = 0.0;       ///< peak edge usage / capacity
  double avg_utilization = 0.0;       ///< mean edge usage / capacity
  /// Fraction of edges above the hotspot threshold (90% of capacity).
  double hotspot_fraction = 0.0;
};

/// Per-gcell congestion (max utilization over incident edges), row-major.
class CongestionMap {
 public:
  /// An empty 0 x 0 map (all stats zero), e.g. a FlowRun whose route phase
  /// never ran.
  CongestionMap() = default;
  explicit CongestionMap(const RoutingGrid& grid);

  std::int32_t nx() const { return nx_; }
  std::int32_t ny() const { return ny_; }
  double at(std::int32_t x, std::int32_t y) const {
    return cells_[static_cast<std::size_t>(y) * nx_ + x];
  }
  const CongestionStats& stats() const { return stats_; }

  /// True when the map passes the flow's acceptance test: no overflow and a
  /// bounded hotspot fraction (the "Is congestion OK?" diamond of Fig. 3).
  bool acceptable(double max_hotspot_fraction = 0.02) const {
    return stats_.total_overflow == 0 && stats_.hotspot_fraction <= max_hotspot_fraction;
  }

  /// ASCII heat map ('.' cool to '#'/'X' over capacity) for logs/examples.
  std::string ascii_art() const;

  /// Portable graymap (P2) image of the map, 0 = idle to 255 = at/over
  /// capacity, one pixel per gcell — viewable in any image tool.
  std::string to_pgm() const;

  /// CSV heatmap: one row per gcell row (top row first, matching the PGM and
  /// ASCII orientations), utilization as plain decimals. Loads directly into
  /// a spreadsheet or numpy.loadtxt for hotspot analysis alongside a trace.
  std::string to_csv() const;

 private:
  std::int32_t nx_ = 0;
  std::int32_t ny_ = 0;
  std::vector<double> cells_;
  CongestionStats stats_;
};

}  // namespace cals
