#include "map/mapper.hpp"

#include <unordered_set>

#include "map/matcher.hpp"
#include "util/check.hpp"
#include "util/obs.hpp"

namespace cals {
namespace {

class Realizer {
 public:
  Realizer(const BaseNetwork& net, const std::vector<VertexCover>& cover,
           MappedNetlist& out)
      : net_(net), cover_(cover), out_(out), memo_(net.num_nodes()) {
    for (NodeId pi : net.pis()) {
      const Signal s = out_.add_pi(net.pi_name(pi));
      memo_[pi.v] = s;
    }
  }

  Signal realize(NodeId w) {
    if (memo_[w.v].valid()) return memo_[w.v];
    // Constant outputs (tautology/contradiction covers) become tie-offs.
    if (w == kConst0Node) return Signal::const0();
    if (net_.is_const1(w)) return Signal::const1();
    const VertexCover& vc = cover_[w.v];
    CALS_CHECK_MSG(vc.valid, "no cover for needed vertex");
    std::vector<Signal> fanins;
    fanins.reserve(vc.match.pins.size());
    for (NodeId pin : vc.match.pins) fanins.push_back(realize(pin));
    const Signal s = out_.add_instance(vc.match.cell, std::move(fanins), vc.pos);
    memo_[w.v] = s;
    realized_.push_back(w);
    return s;
  }

  const std::vector<NodeId>& realized() const { return realized_; }

 private:
  const BaseNetwork& net_;
  const std::vector<VertexCover>& cover_;
  MappedNetlist& out_;
  std::vector<Signal> memo_;
  std::vector<NodeId> realized_;
};

/// Netlist construction + statistics from a finished cover (the shared back
/// end of map_network and map_network_cached).
MapResult realize_cover(const BaseNetwork& net, const Library& library,
                        const SubjectForest& forest,
                        const std::vector<VertexCover>& cover) {
  CALS_TRACE_SCOPE("map.realize");
  MapResult result{MappedNetlist(&library), {}};
  Realizer realizer(net, cover, result.netlist);
  for (const PrimaryOutput& po : net.pos())
    result.netlist.add_po(po.name, realizer.realize(po.driver));

  // ---- statistics --------------------------------------------------------
  MapStats& stats = result.stats;
  stats.num_cells = result.netlist.num_instances();
  stats.cell_area = result.netlist.total_cell_area();
  stats.num_trees = static_cast<std::uint32_t>(forest.trees.size());
  for (const SubjectTree& tree : forest.trees)
    if (cover[tree.root.v].valid) stats.dp_wire_cost += cover[tree.root.v].wire_cost;

  // Duplicated logic: realized vertices that some realized match also covers
  // internally (below its root).
  std::unordered_set<std::uint32_t> buried;
  for (NodeId w : realizer.realized()) {
    const Match& match = cover[w.v].match;
    for (NodeId c : match.covered)
      if (!(c == w)) buried.insert(c.v);
  }
  for (NodeId w : realizer.realized())
    if (buried.contains(w.v)) ++stats.duplicated_signals;

  return result;
}

}  // namespace

MapResult map_network(const BaseNetwork& net, const Library& library,
                      const std::vector<Point>& positions, const MapperOptions& options) {
  CALS_CHECK_MSG(net.fanouts_built(), "call build_fanouts() first");

  const SubjectForest forest =
      partition_dag(net, options.partition, positions, options.cover.metric);
  const Matcher matcher(net, forest, library);
  std::vector<VertexCover> cover;
  {
    CALS_TRACE_SCOPE("map.cover");
    cover = cover_forest(net, forest, matcher, library, positions, options.cover);
  }
  return realize_cover(net, library, forest, cover);
}

MatchDatabase build_match_database(const BaseNetwork& net, const Library& library,
                                   const std::vector<Point>& positions,
                                   PartitionStrategy partition, DistanceMetric metric,
                                   ThreadPool*) {
  CALS_CHECK_MSG(net.fanouts_built(), "call build_fanouts() first");
  CALS_TRACE_SCOPE("map.match_db_build");
  // Dataset-served jobs must never reach this builder (the blob carries the
  // match db); the serving CI asserts this counter stays absent.
  CALS_OBS_COUNT("map.match_db_builds", 1);
  MatchDatabase db;
  db.partition = partition;
  db.metric = metric;
  db.forest = partition_dag(net, partition, positions, metric);
  const Matcher matcher(net, db.forest, library);
  db.matches = build_match_set(net, db.forest, matcher, library, positions);
  return db;
}

MapResult map_network_cached(const BaseNetwork& net, const Library& library,
                             const std::vector<Point>& positions,
                             const MatchDatabase& db, const CoverOptions& cover_options,
                             ThreadPool*) {
  CALS_CHECK_MSG(net.fanouts_built(), "call build_fanouts() first");
  CALS_CHECK_MSG(cover_options.metric == db.metric,
                 "match database was built for a different distance metric");
  std::vector<VertexCover> cover;
  {
    CALS_TRACE_SCOPE("map.cover");
    cover = cover_forest(net, db.forest, db.matches, library, positions, cover_options);
  }
  return realize_cover(net, library, db.forest, cover);
}

}  // namespace cals
