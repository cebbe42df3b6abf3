#pragma once
/// \file cover.hpp
/// Dynamic-programming tree covering with the paper's congestion-aware cost
/// function (Sec. 3.2):
///
///   AREA(m,v)  = area(m) + sum_i areaCost(v_i)                     (Eq. 1)
///   WIRE1(m,v) = sum_i dist(pos(m,v), pos(match(v_i), v_i))        (Eq. 2)
///   WIRE2(m,v) = sum_i wireCost(v_i)                               (Eq. 3)
///   WIRE(m,v)  = WIRE1 + WIRE2                                     (Eq. 4)
///   COST(m,v)  = PRIMARY(m,v) + K * WIRE(m,v)                      (Eq. 5)
///
/// PRIMARY is AREA for the paper's main objective; a load-estimated arrival
/// time is available as an alternative (Rudell/Touati-style delay mapping).
/// pos(m,v) is the center of mass of the base gates covered by m, computed
/// from the initial technology-independent placement; fanin positions are
/// the memoized centers of their chosen matches (the paper's incremental
/// placement update).

#include <cstdint>
#include <vector>

#include "geom/geom.hpp"
#include "library/library.hpp"
#include "map/matcher.hpp"
#include "map/partition.hpp"
#include "netlist/base_network.hpp"
#include "util/cancel.hpp"
#include "util/vec_view.hpp"

namespace cals {

enum class MapObjective {
  kArea,   ///< minimize cell area (the paper's setting)
  kDelay,  ///< minimize estimated arrival time
};

struct CoverOptions {
  /// The congestion minimization factor K of Eq. 5 (0 = pure min-area).
  double K = 0.0;
  MapObjective objective = MapObjective::kArea;
  DistanceMetric metric = DistanceMetric::kManhattan;
  /// Ablation (DESIGN.md A2): charge fanin wire costs unconditionally, i.e.
  /// the transitive-fanin accounting of Pedram–Bhat the paper criticizes in
  /// Sec. 3.3, instead of the paper's subtree-scoped WIRE2.
  bool transitive_wire_cost = false;
  /// Charge the duplication a match forces when it covers a multi-fanout
  /// vertex internally: that vertex is still needed by its other readers, so
  /// its own best match gets instantiated again. Without this the DP
  /// systematically buries shared logic and the cell area balloons (the
  /// paper reports duplication "comparable with [MIS]", which requires the
  /// trade-off to be priced).
  bool charge_duplication = true;
  /// Wire delay per um for the delay objective (ns/um).
  double wire_delay_ns_per_um = 0.0016;
  /// Load estimate per fanout pin for the delay objective (fF).
  double est_sink_cap_ff = 3.0;
  /// Cooperative cancellation, polled every few thousand DP vertices. Not
  /// owned; null = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Per-vertex result of the covering DP.
struct VertexCover {
  Match match;
  double area_cost = 0.0;  ///< Eq. 1 for the chosen match
  double wire_cost = 0.0;  ///< Eq. 4 for the chosen match
  double cost = 0.0;       ///< Eq. 5 for the chosen match
  double arrival = 0.0;    ///< estimated arrival (delay objective bookkeeping)
  Point pos;               ///< center of mass of the covered base gates
  bool valid = false;
};

/// Runs the DP over every live gate (all trees, fanin-before-father order).
/// positions[n] must hold the initial placement coordinate of every node.
/// Aborts if some vertex has no match (library must contain INV and NAND2).
std::vector<VertexCover> cover_forest(const BaseNetwork& net, const SubjectForest& forest,
                                      const Matcher& matcher, const Library& library,
                                      const std::vector<Point>& positions,
                                      const CoverOptions& options);

/// The K-independent artifacts of the matching front end, reusable across
/// every K of a sweep (only the DP costs of Eq. 1–5 depend on K).
///
/// The set is pure SoA: everything the Eq. 1–5 inner loop reads that does
/// not depend on the DP state lives in flat parallel arrays (match centers
/// of mass, cell areas, pin node ids with precomputed is-gate/in-subtree
/// flags and static fallback positions, duplication-charge node lists). The
/// per-K kernel walks contiguous slots instead of pointer-chasing Match
/// vectors, and no Match is ever copied per evaluation — only the winning
/// slot's Match is rebuilt via materialize(). Every array is a VecOrView:
/// build_match_set produces owning arrays, while the dataset-blob loader
/// (store/dataset.cpp) aliases them zero-copy over the mmap-ed bytes.
struct MatchSet {
  enum PinFlags : std::uint8_t {
    kPinIsGate = 1,     ///< net.is_gate(pin)
    kPinInSubtree = 2,  ///< pin's father is covered by the match (Eq. 1/3 scope)
  };
  /// Match slots of node v: [first[v], first[v+1]). Size num_nodes + 1.
  VecOrView<std::uint32_t> first;
  VecOrView<Point> match_pos;        ///< per slot: center of mass of covered gates
  VecOrView<double> cell_area;       ///< per slot: area of the matched cell
  VecOrView<CellId> cell;            ///< per slot: the matched cell (delay lookups)
  VecOrView<std::uint32_t> pattern_index;  ///< per slot: Match::pattern_index
  VecOrView<std::uint32_t> pin_first;  ///< per slot: first pin entry (size slots+1)
  VecOrView<std::uint32_t> dup_first;  ///< per slot: first duplication entry
  VecOrView<std::uint32_t> cov_first;  ///< per slot: first covered-vertex entry
  VecOrView<std::uint32_t> pin_node;   ///< per pin entry: bound subject vertex
  VecOrView<std::uint8_t> pin_flags;   ///< per pin entry: PinFlags
  VecOrView<Point> pin_pos;   ///< per pin entry: static position (non-gate fallback)
  VecOrView<std::uint32_t> dup_node;  ///< per dup entry: covered multi-fanout vertex
  /// Per covered entry: the vertices a slot's match covers, in the matcher's
  /// discovery order (= Match::covered order, which realize/stats rely on).
  VecOrView<std::uint32_t> cov_node;

  std::uint32_t num_slots() const { return first.back(); }
  std::uint32_t slots_begin(NodeId v) const { return first[v.v]; }
  std::uint32_t slots_end(NodeId v) const { return first[v.v + 1]; }
  /// Rebuilds the full Match for one slot (the DP winner) from the CSR rows.
  Match materialize(std::uint32_t slot) const;
};

/// Precomputes matches (with the SoA pricing view) for `forest`.
/// positions[n] must hold the initial placement coordinate of every node —
/// the same array later passed to cover_forest.
MatchSet build_match_set(const BaseNetwork& net, const SubjectForest& forest,
                         const Matcher& matcher, const Library& library,
                         const std::vector<Point>& positions);

/// The covering DP over precomputed matches, in ascending node order (serial:
/// a wave-parallel DP measured slower than this loop). Bit-identical to the
/// Matcher overload.
std::vector<VertexCover> cover_forest(const BaseNetwork& net, const SubjectForest& forest,
                                      const MatchSet& matches, const Library& library,
                                      const std::vector<Point>& positions,
                                      const CoverOptions& options);

}  // namespace cals
