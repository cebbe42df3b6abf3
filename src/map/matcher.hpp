#pragma once
/// \file matcher.hpp
/// Structural tree matching: enumerates all library-cell matches rooted at a
/// subject-tree vertex. Pattern internal nodes must follow tree (father)
/// edges; pattern variables bind to arbitrary vertices (tree leaves or
/// internal vertices), with repeated variables required to bind the same
/// vertex (XOR-style patterns).

#include <cstdint>
#include <span>
#include <vector>

#include "library/library.hpp"
#include "map/partition.hpp"
#include "netlist/base_network.hpp"

namespace cals {

struct Match {
  CellId cell;
  std::uint32_t pattern_index = 0;
  /// Bound subject vertex per cell pin (pattern variable order).
  std::vector<NodeId> pins;
  /// Subject vertices covered by the pattern's internal nodes (the base
  /// gates this cell replaces); root included, in discovery order.
  std::vector<NodeId> covered;
};

/// The enumeration reuses one set of scratch arrays (variable bindings, the
/// binding trail, covered vertices) across every vertex, so a Matcher serves
/// one thread at a time.
class Matcher {
 public:
  Matcher(const BaseNetwork& net, const SubjectForest& forest, const Library& library);

  /// Calls visit(cell, pattern_index, pins, covered) for every match rooted
  /// at tree vertex `v`, in library (cell, pattern) order. `pins` and
  /// `covered` are the Match fields of that match; they alias the scratch
  /// and are valid only during the call.
  template <typename Visit>
  void for_each_match(NodeId v, Visit&& visit) const {
    for (const Candidate& candidate : candidates(v))
      if (match_root(*candidate.pattern, v))
        visit(candidate.cell, candidate.pattern_index, std::span<const NodeId>(binding_),
              std::span<const NodeId>(covered_));
  }

  /// All matches rooted at tree vertex `v` (deterministic order), as
  /// for_each_match visits them. Every INV/NAND2 vertex yields at least the
  /// base-cell match as long as the library contains INV and NAND2 functions.
  std::vector<Match> matches_at(NodeId v) const;

 private:
  struct Candidate {
    CellId cell;
    std::uint32_t pattern_index = 0;
    const Pattern* pattern = nullptr;
  };

  /// The (cell, pattern) pairs whose root kind fits `v`, in library order.
  const std::vector<Candidate>& candidates(NodeId v) const {
    if (!net_.is_gate(v)) return by_vertex_kind_[0];
    return by_vertex_kind_[net_.kind(v) == NodeKind::kInv ? 1 : 2];
  }
  /// Matches `pattern` at `v`; on success the scratch holds its pins and
  /// covered vertices.
  bool match_root(const Pattern& pattern, NodeId v) const;
  bool match_node(const PatternNode* nodes, std::int32_t pnode, NodeId vertex, NodeId parent,
                  bool is_root) const;

  const BaseNetwork& net_;
  const SubjectForest& forest_;
  /// Candidates per vertex kind: [0] non-gate (variable roots only), [1] INV
  /// (INV and variable roots), [2] NAND2 (NAND2 and variable roots).
  std::vector<Candidate> by_vertex_kind_[3];

  mutable std::vector<NodeId> binding_;
  mutable std::vector<std::int32_t> trail_;
  mutable std::vector<NodeId> covered_;
};

}  // namespace cals
