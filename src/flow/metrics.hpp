#pragma once
/// \file metrics.hpp
/// Per-run result records shared by the flow, the benches and EXPERIMENTS.md.

#include <cmath>
#include <cstdint>
#include <string>

#include "util/check.hpp"

namespace cals {

/// The figures the paper's tables report for one mapped + placed + routed
/// netlist.
struct FlowMetrics {
  double k_factor = 0.0;
  std::uint32_t num_cells = 0;
  double cell_area_um2 = 0.0;
  double utilization_pct = 0.0;       ///< cell area / core area * 100
  std::uint64_t routing_violations = 0;  ///< global-router edge overflow
  bool routable = false;
  double wirelength_um = 0.0;         ///< routed wirelength
  double hpwl_um = 0.0;               ///< post-legalization HPWL
  double critical_path_ns = 0.0;
  std::string crit_start;             ///< launching PI of the critical path
  std::string crit_end;               ///< capturing PO of the critical path
  std::uint32_t num_rows = 0;
  double chip_area_um2 = 0.0;
  double map_seconds = 0.0;
  double pd_seconds = 0.0;            ///< place+route+STA wall time
  // Phase breakdown of pd_seconds, so sweeps can see where a K evaluation
  // spends its time instead of one opaque figure (EXPERIMENTS.md).
  double place_seconds = 0.0;         ///< lower + place/seed + legalize + refine
  double route_seconds = 0.0;         ///< grid build + global route + congestion
  double sta_seconds = 0.0;           ///< static timing
  // Congestion repair (cals::rcm, DESIGN.md §15). All zero when
  // FlowOptions::repair_passes == 0 — the repair-off flow never touches them.
  std::uint32_t rcm_passes = 0;            ///< repair passes actually executed
  std::uint32_t rcm_cells_moved = 0;       ///< cells relocated across all passes
  std::uint64_t rcm_overflow_removed = 0;  ///< overflow before repair - after
};

/// Debug-mode consistency check: pd_seconds is documented as the
/// place+route+STA wall time, so the phase breakdown must sum to it. The
/// tolerance covers the untimed glue between the phase stopwatches (option
/// struct copies, result moves) — microseconds in practice; anything beyond
/// 10 ms + 5% means a phase was dropped from (or double-counted into) the
/// breakdown.
inline void debug_check_phase_accounting(const FlowMetrics& m) {
#ifndef NDEBUG
  const double sum = m.place_seconds + m.route_seconds + m.sta_seconds;
  CALS_CHECK_MSG(std::abs(m.pd_seconds - sum) <= 0.01 + 0.05 * m.pd_seconds,
                 "FlowMetrics phase breakdown does not sum to pd_seconds");
#else
  (void)m;
#endif
}

}  // namespace cals
