#include "map/cover.hpp"

#include <algorithm>

#include "netlist/dag.hpp"
#include "util/check.hpp"
#include "util/obs.hpp"

namespace cals {
namespace {

/// Batched DP counters: one atomic publish per DP loop instead of two per
/// vertex, so the instrumented hot path stays hot.
struct CoverTally {
  std::uint64_t vertices = 0;
  std::uint64_t matches = 0;
  void publish() const {
    if (vertices == 0 && matches == 0) return;
    CALS_OBS_COUNT("map.cover_vertices", vertices);
    CALS_OBS_COUNT("map.matches_tried", matches);
  }
};

/// True if `pin`'s father is one of the vertices covered by the match, i.e.
/// the pin roots a subtree that belongs to this DP accumulation. Pins whose
/// father lies elsewhere (tree-leaf references, reconvergent reads, PIs) are
/// inputs only: their area/wire is charged where they are internal.
bool pin_in_subtree(const SubjectForest& forest, std::span<const NodeId> covered,
                    NodeId pin) {
  return std::find(covered.begin(), covered.end(), forest.father[pin.v]) != covered.end();
}

/// The Eq. 1–5 best-match selection for one vertex. Reads only cover entries
/// of vertices reachable through fanin chains of `v` (covered subtree
/// vertices, match pins, duplication charges), which the caller guarantees
/// are finalized; writes nothing but the returned value.
VertexCover cover_vertex(const BaseNetwork& net, const SubjectForest& forest,
                         const Library& library, const std::vector<Point>& positions,
                         const CoverOptions& options,
                         const std::vector<VertexCover>& cover, NodeId v,
                         std::vector<Match> matches) {
  CALS_CHECK_MSG(!matches.empty(), "vertex has no match — library lacks INV/NAND2?");

  VertexCover best;
  for (Match& match : matches) {
    const Cell& cell = library.cell(match.cell);

    // pos(m,v): center of mass of the covered base gates, from the
    // initial tech-independent placement.
    std::vector<Point> covered_points;
    covered_points.reserve(match.covered.size());
    for (NodeId w : match.covered) covered_points.push_back(positions[w.v]);
    const Point match_pos = center_of_mass(covered_points);

    double area = cell.area();
    double wire1 = 0.0;
    double wire2 = 0.0;
    double arrival = 0.0;

    // Duplication pricing: covering a multi-fanout vertex internally does
    // not remove the need for its signal — the other readers instantiate
    // its own best match again.
    if (options.charge_duplication) {
      for (NodeId w : match.covered) {
        if (w == v) continue;
        if (net.fanout_count(w) > 1) {
          CALS_CHECK(cover[w.v].valid);
          area += library.cell(cover[w.v].match.cell).area();
        }
      }
    }
    for (NodeId pin : match.pins) {
      const bool in_subtree = net.is_gate(pin) && pin_in_subtree(forest, match.covered, pin);
      const VertexCover& pin_cover = cover[pin.v];
      // Fanin position: the memoized center of the pin's chosen match for
      // gates, the pad/base position otherwise.
      const Point pin_pos =
          (net.is_gate(pin) && pin_cover.valid) ? pin_cover.pos : positions[pin.v];
      const double d = distance(match_pos, pin_pos, options.metric);
      wire1 += d;
      if (in_subtree) {
        CALS_CHECK_MSG(pin_cover.valid, "DP order violated");
        area += pin_cover.area_cost;
        wire2 += pin_cover.wire_cost;
      } else if (options.transitive_wire_cost && net.is_gate(pin) && pin_cover.valid) {
        // Ablation: Pedram–Bhat-style accounting pulls in the wire cost of
        // the full transitive fanin regardless of subtree ownership.
        wire2 += pin_cover.wire_cost;
      }
      if (options.objective == MapObjective::kDelay) {
        const double pin_arrival = (net.is_gate(pin) && pin_cover.valid)
                                       ? pin_cover.arrival
                                       : 0.0;
        arrival = std::max(arrival,
                           pin_arrival + d * options.wire_delay_ns_per_um);
      }
    }
    const double wire = wire1 + wire2;
    if (options.objective == MapObjective::kDelay)
      arrival += cell.delay(options.est_sink_cap_ff);

    const double primary = options.objective == MapObjective::kArea ? area : arrival;
    const double cost = primary + options.K * wire;

    if (!best.valid || cost < best.cost ||
        (cost == best.cost && area < best.area_cost)) {
      best.valid = true;
      best.match = std::move(match);
      best.area_cost = area;
      best.wire_cost = wire;
      best.cost = cost;
      best.arrival = arrival;
      best.pos = match_pos;
    }
  }
  return best;
}

/// The Eq. 1–5 best-match selection over the SoA pricing view: the exact
/// arithmetic of cover_vertex (same accumulation order, same tie-breaks,
/// hence bit-identical costs) but reading contiguous slot arrays instead of
/// Match vectors. The subtree-membership and is-gate predicates and the
/// match centers of mass are K-independent and were folded into the arrays
/// by build_match_set; only the winning slot's Match is copied out.
VertexCover cover_vertex_priced(const MatchSet& set, const Library& library,
                                const CoverOptions& options,
                                const std::vector<VertexCover>& cover, NodeId v) {
  const std::uint32_t m_begin = set.first[v.v];
  const std::uint32_t m_end = set.first[v.v + 1];
  CALS_CHECK_MSG(m_end > m_begin, "vertex has no match — library lacks INV/NAND2?");

  VertexCover best;
  std::uint32_t best_slot = UINT32_MAX;
  for (std::uint32_t m = m_begin; m < m_end; ++m) {
    const Point match_pos = set.match_pos[m];
    double area = set.cell_area[m];
    double wire1 = 0.0;
    double wire2 = 0.0;
    double arrival = 0.0;

    if (options.charge_duplication) {
      for (std::uint32_t d = set.dup_first[m]; d < set.dup_first[m + 1]; ++d) {
        const VertexCover& dup_cover = cover[set.dup_node[d]];
        CALS_CHECK(dup_cover.valid);
        area += library.cell(dup_cover.match.cell).area();
      }
    }
    for (std::uint32_t p = set.pin_first[m]; p < set.pin_first[m + 1]; ++p) {
      const std::uint8_t flags = set.pin_flags[p];
      const bool is_gate = (flags & MatchSet::kPinIsGate) != 0;
      const VertexCover& pin_cover = cover[set.pin_node[p]];
      const Point pin_pos = (is_gate && pin_cover.valid) ? pin_cover.pos : set.pin_pos[p];
      const double d = distance(match_pos, pin_pos, options.metric);
      wire1 += d;
      if ((flags & MatchSet::kPinInSubtree) != 0) {
        CALS_CHECK_MSG(pin_cover.valid, "DP order violated");
        area += pin_cover.area_cost;
        wire2 += pin_cover.wire_cost;
      } else if (options.transitive_wire_cost && is_gate && pin_cover.valid) {
        wire2 += pin_cover.wire_cost;
      }
      if (options.objective == MapObjective::kDelay) {
        const double pin_arrival = (is_gate && pin_cover.valid) ? pin_cover.arrival : 0.0;
        arrival = std::max(arrival, pin_arrival + d * options.wire_delay_ns_per_um);
      }
    }
    const double wire = wire1 + wire2;
    if (options.objective == MapObjective::kDelay)
      arrival += library.cell(set.cell[m]).delay(options.est_sink_cap_ff);

    const double primary = options.objective == MapObjective::kArea ? area : arrival;
    const double cost = primary + options.K * wire;

    if (best_slot == UINT32_MAX || cost < best.cost ||
        (cost == best.cost && area < best.area_cost)) {
      best_slot = m;
      best.valid = true;
      best.area_cost = area;
      best.wire_cost = wire;
      best.cost = cost;
      best.arrival = arrival;
      best.pos = match_pos;
    }
  }
  best.match = set.materialize(best_slot);
  return best;
}

}  // namespace

Match MatchSet::materialize(std::uint32_t slot) const {
  Match m;
  m.cell = cell[slot];
  m.pattern_index = pattern_index[slot];
  m.pins.reserve(pin_first[slot + 1] - pin_first[slot]);
  for (std::uint32_t p = pin_first[slot]; p < pin_first[slot + 1]; ++p)
    m.pins.push_back(NodeId{pin_node[p]});
  m.covered.reserve(cov_first[slot + 1] - cov_first[slot]);
  for (std::uint32_t c = cov_first[slot]; c < cov_first[slot + 1]; ++c)
    m.covered.push_back(NodeId{cov_node[c]});
  return m;
}

std::vector<VertexCover> cover_forest(const BaseNetwork& net, const SubjectForest& forest,
                                      const Matcher& matcher, const Library& library,
                                      const std::vector<Point>& positions,
                                      const CoverOptions& options) {
  CALS_CHECK(positions.size() == net.num_nodes());
  std::vector<VertexCover> cover(net.num_nodes());

  // Global ascending node order is fanin-before-father within every tree,
  // and guarantees cross-tree leaf references (always to smaller ids) are
  // resolved before use.
  CoverTally tally;
  for (std::uint32_t i = 0; i < net.num_nodes(); ++i) {
    const NodeId v{i};
    if (!forest.in_tree(v)) continue;
    std::vector<Match> matches = matcher.matches_at(v);
    ++tally.vertices;
    tally.matches += matches.size();
    cover[i] = cover_vertex(net, forest, library, positions, options, cover, v,
                            std::move(matches));
  }
  tally.publish();
  return cover;
}

MatchSet build_match_set(const BaseNetwork& net, const SubjectForest& forest,
                         const Matcher& matcher, const Library& library,
                         const std::vector<Point>& positions) {
  CALS_CHECK(positions.size() == net.num_nodes());
  // Each match's K-independent pricing inputs go straight into the SoA
  // arrays. Slot order is (node, cell, pattern), as matches_at lists them;
  // pin, dup and covered entries keep their within-match order, so the
  // kernel's accumulation order — and with it every double — matches the
  // Match-based loop bit for bit, and materialize() rebuilds Matches
  // byte-identical to the matcher's.
  const std::uint32_t n = net.num_nodes();
  std::vector<std::uint32_t> first(n + 1);
  std::vector<Point> match_pos;
  std::vector<double> cell_area;
  std::vector<CellId> cell;
  std::vector<std::uint32_t> pattern_index;
  std::vector<std::uint32_t> pin_first;
  std::vector<std::uint32_t> dup_first;
  std::vector<std::uint32_t> cov_first;
  std::vector<std::uint32_t> pin_node;
  std::vector<std::uint8_t> pin_flags;
  std::vector<Point> pin_pos;
  std::vector<std::uint32_t> dup_node;
  std::vector<std::uint32_t> cov_node;
  std::vector<Point> covered_points;
  // Sized for the core library's density (per tree vertex: up to ~2.8
  // slots, ~6.5 pin, ~7.7 covered and ~0.4 duplication entries), so the
  // arrays rarely grow.
  std::size_t tree_vertices = 0;
  for (const SubjectTree& tree : forest.trees) tree_vertices += tree.vertices.size();
  const std::size_t slot_hint = 3 * tree_vertices + 1;
  for (auto* slot_array : {&pattern_index, &pin_first, &dup_first, &cov_first})
    slot_array->reserve(slot_hint);
  match_pos.reserve(slot_hint);
  cell_area.reserve(slot_hint);
  cell.reserve(slot_hint);
  pin_node.reserve(7 * tree_vertices);
  pin_flags.reserve(7 * tree_vertices);
  pin_pos.reserve(7 * tree_vertices);
  cov_node.reserve(8 * tree_vertices);
  dup_node.reserve(tree_vertices / 2);
  const auto offset = [](const auto& entries) {
    return static_cast<std::uint32_t>(entries.size());
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    first[i] = offset(cell);
    const NodeId v{i};
    if (!forest.in_tree(v)) continue;
    matcher.for_each_match(v, [&](CellId match_cell, std::uint32_t pattern,
                                  std::span<const NodeId> pins,
                                  std::span<const NodeId> covered) {
      pin_first.push_back(offset(pin_node));
      dup_first.push_back(offset(dup_node));
      cov_first.push_back(offset(cov_node));
      // pos(m,v) exactly as cover_vertex computes it: unweighted center of
      // mass of the covered base gates, in discovery order.
      covered_points.clear();
      for (NodeId w : covered) covered_points.push_back(positions[w.v]);
      match_pos.push_back(center_of_mass(covered_points));
      cell_area.push_back(library.cell(match_cell).area());
      cell.push_back(match_cell);
      pattern_index.push_back(pattern);
      for (NodeId w : covered) {
        cov_node.push_back(w.v);
        if (!(w == v) && net.fanout_count(w) > 1) dup_node.push_back(w.v);
      }
      for (NodeId pin : pins) {
        std::uint8_t flags = 0;
        if (net.is_gate(pin)) {
          flags |= MatchSet::kPinIsGate;
          if (pin_in_subtree(forest, covered, pin)) flags |= MatchSet::kPinInSubtree;
        }
        pin_node.push_back(pin.v);
        pin_flags.push_back(flags);
        pin_pos.push_back(positions[pin.v]);
      }
    });
  }
  first[n] = offset(cell);
  pin_first.push_back(offset(pin_node));
  dup_first.push_back(offset(dup_node));
  cov_first.push_back(offset(cov_node));

  MatchSet set;
  set.first = VecOrView<std::uint32_t>(std::move(first));
  set.match_pos = VecOrView<Point>(std::move(match_pos));
  set.cell_area = VecOrView<double>(std::move(cell_area));
  set.cell = VecOrView<CellId>(std::move(cell));
  set.pattern_index = VecOrView<std::uint32_t>(std::move(pattern_index));
  set.pin_first = VecOrView<std::uint32_t>(std::move(pin_first));
  set.dup_first = VecOrView<std::uint32_t>(std::move(dup_first));
  set.cov_first = VecOrView<std::uint32_t>(std::move(cov_first));
  set.pin_node = VecOrView<std::uint32_t>(std::move(pin_node));
  set.pin_flags = VecOrView<std::uint8_t>(std::move(pin_flags));
  set.pin_pos = VecOrView<Point>(std::move(pin_pos));
  set.dup_node = VecOrView<std::uint32_t>(std::move(dup_node));
  set.cov_node = VecOrView<std::uint32_t>(std::move(cov_node));
  return set;
}

std::vector<VertexCover> cover_forest(const BaseNetwork& net, const SubjectForest& forest,
                                      const MatchSet& matches, const Library& library,
                                      const std::vector<Point>& positions,
                                      const CoverOptions& options) {
  CALS_CHECK(positions.size() == net.num_nodes());
  CALS_CHECK(matches.first.size() == net.num_nodes() + 1);
  std::vector<VertexCover> cover(net.num_nodes());

  CoverTally tally;
  for (std::uint32_t i = 0; i < net.num_nodes(); ++i) {
    // Cancellation checkpoint, amortized over the hot DP loop.
    if ((i & 4095u) == 0u) cancel_point(options.cancel);
    const NodeId v{i};
    if (!forest.in_tree(v)) continue;
    ++tally.vertices;
    tally.matches += matches.slots_end(v) - matches.slots_begin(v);
    cover[i] = cover_vertex_priced(matches, library, options, cover, v);
  }
  tally.publish();
  return cover;
}

}  // namespace cals
