#include "map/matcher.hpp"

#include "util/check.hpp"

namespace cals {

Matcher::Matcher(const BaseNetwork& net, const SubjectForest& forest, const Library& library)
    : net_(net), forest_(forest) {
  // A pattern whose root is an INV (NAND2) node can only match an INV
  // (NAND2) vertex; a variable root binds any vertex. Grouping once keeps
  // the library order within each list, so enumeration order is unchanged.
  for (std::uint32_t c = 0; c < library.num_cells(); ++c) {
    const Cell& cell = library.cell(CellId{c});
    for (std::uint32_t pi = 0; pi < cell.patterns().size(); ++pi) {
      const Pattern& pattern = cell.patterns()[pi];
      const Candidate candidate{CellId{c}, pi, &pattern};
      switch (pattern.root_kind()) {
        case PatternKind::kVar:
          for (auto& list : by_vertex_kind_) list.push_back(candidate);
          break;
        case PatternKind::kInv: by_vertex_kind_[1].push_back(candidate); break;
        case PatternKind::kNand2: by_vertex_kind_[2].push_back(candidate); break;
      }
    }
  }
}

bool Matcher::match_root(const Pattern& pattern, NodeId v) const {
  binding_.assign(pattern.num_vars(), kConst0Node);
  trail_.clear();
  covered_.clear();
  return match_node(pattern.nodes().data(), pattern.root(), v, kConst0Node, true);
}

bool Matcher::match_node(const PatternNode* nodes, std::int32_t pnode, NodeId vertex,
                         NodeId parent, bool is_root) const {
  const PatternNode& p = nodes[pnode];

  if (p.kind == PatternKind::kVar) {
    // Variables bind to any signal source: PI, const1, or another gate.
    if (vertex == kConst0Node) return false;  // const0 is never a real signal here
    NodeId& slot = binding_[static_cast<std::size_t>(p.var)];
    if (slot == kConst0Node) {
      slot = vertex;
      trail_.push_back(p.var);
      return true;
    }
    return slot == vertex;
  }

  // Internal pattern nodes must cover tree-internal vertices reached along
  // father edges (the match must stay inside one subject tree).
  if (!net_.is_gate(vertex)) return false;
  if (!is_root && !forest_.is_father(parent, vertex)) return false;

  const std::size_t covered_mark = covered_.size();
  const std::size_t trail_mark = trail_.size();
  auto undo = [&]() {
    covered_.resize(covered_mark);
    while (trail_.size() > trail_mark) {
      binding_[static_cast<std::size_t>(trail_.back())] = kConst0Node;
      trail_.pop_back();
    }
  };

  if (p.kind == PatternKind::kInv) {
    if (net_.kind(vertex) != NodeKind::kInv) return false;
    covered_.push_back(vertex);
    if (match_node(nodes, p.child0, net_.fanin0(vertex), vertex, false)) return true;
    undo();
    return false;
  }

  CALS_CHECK(p.kind == PatternKind::kNand2);
  if (net_.kind(vertex) != NodeKind::kNand2) return false;
  covered_.push_back(vertex);
  // Try both operand orders (NAND is commutative; the subject is stored in
  // canonical fanin order, patterns are not).
  if (match_node(nodes, p.child0, net_.fanin0(vertex), vertex, false) &&
      match_node(nodes, p.child1, net_.fanin1(vertex), vertex, false))
    return true;
  undo();
  covered_.push_back(vertex);
  if (match_node(nodes, p.child0, net_.fanin1(vertex), vertex, false) &&
      match_node(nodes, p.child1, net_.fanin0(vertex), vertex, false))
    return true;
  undo();
  return false;
}

std::vector<Match> Matcher::matches_at(NodeId v) const {
  std::vector<Match> result;
  for_each_match(v, [&result](CellId cell, std::uint32_t pattern_index,
                              std::span<const NodeId> pins, std::span<const NodeId> covered) {
    result.push_back(Match{cell, pattern_index, {pins.begin(), pins.end()},
                           {covered.begin(), covered.end()}});
  });
  return result;
}

}  // namespace cals
