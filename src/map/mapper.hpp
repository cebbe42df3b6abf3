#pragma once
/// \file mapper.hpp
/// The congestion-aware technology mapper: partition -> match -> cover ->
/// netlist construction. This is the paper's contribution packaged behind
/// one call.
///
/// For K sweeps (the Fig. 3 iteration, Tables 2–5), the partition + match
/// front end is K-independent: build it once with build_match_database() and
/// evaluate every K through map_network_cached(), which only re-runs the DP
/// cover and netlist construction.

#include <cstdint>

#include "map/cover.hpp"
#include "map/mapped_netlist.hpp"
#include "map/partition.hpp"

namespace cals {

class ThreadPool;

struct MapperOptions {
  PartitionStrategy partition = PartitionStrategy::kPlacementDriven;
  CoverOptions cover;
};

struct MapStats {
  std::uint32_t num_cells = 0;
  double cell_area = 0.0;
  /// Sum of DP wire costs over tree roots (the mapper's own congestion
  /// estimate; um of fanin interconnect).
  double dp_wire_cost = 0.0;
  /// Vertices that had to be instantiated although another chosen match
  /// already covers them internally (logic duplication across tree
  /// boundaries, see Sec. 3.1 discussion).
  std::uint32_t duplicated_signals = 0;
  std::uint32_t num_trees = 0;
};

struct MapResult {
  MappedNetlist netlist;
  MapStats stats;
};

/// Maps a base network onto `library`.
/// `positions` is the initial placement of the technology-independent
/// netlist (one point per node, pads included) — see lower_base_network()
/// and global_place(). Requires net.fanouts_built(); the network must not
/// drive primary outputs from constants.
MapResult map_network(const BaseNetwork& net, const Library& library,
                      const std::vector<Point>& positions,
                      const MapperOptions& options = {});

/// Everything in the mapping pipeline that does not depend on K (or on any
/// other CoverOptions field): the subject forest for one {partition, metric}
/// choice plus every per-vertex match candidate. Build once per
/// DesignContext / sweep, reuse for every K.
struct MatchDatabase {
  PartitionStrategy partition = PartitionStrategy::kPlacementDriven;
  DistanceMetric metric = DistanceMetric::kManhattan;
  SubjectForest forest;
  MatchSet matches;
};

/// Runs partition + matcher for the given strategy/metric, serially. The
/// trailing pool is ignored; it stays only for callers that still pass one.
MatchDatabase build_match_database(const BaseNetwork& net, const Library& library,
                                   const std::vector<Point>& positions,
                                   PartitionStrategy partition,
                                   DistanceMetric metric = DistanceMetric::kManhattan,
                                   ThreadPool* = nullptr);

/// The per-K back half of map_network: DP cover over the cached database,
/// then netlist construction, serially. `cover.metric` must equal `db.metric`
/// (the cached forest was partitioned with it). Produces a MapResult
/// bit-identical to map_network() with the same options. The trailing pool
/// is ignored; it stays only for callers that still pass one.
MapResult map_network_cached(const BaseNetwork& net, const Library& library,
                             const std::vector<Point>& positions,
                             const MatchDatabase& db, const CoverOptions& cover,
                             ThreadPool* = nullptr);

}  // namespace cals
