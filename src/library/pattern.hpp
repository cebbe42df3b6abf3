#pragma once
/// \file pattern.hpp
/// Structural match patterns: each library cell is described by one or more
/// trees over {VAR, INV, NAND2}, mirroring how DAGON describes cells as
/// NAND2/INV decompositions. The matcher (src/map/matcher.*) walks these
/// trees against subject trees.

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace cals {

enum class PatternKind : std::uint8_t { kVar, kInv, kNand2 };

/// One tree node; children index into Pattern::nodes.
struct PatternNode {
  PatternKind kind = PatternKind::kVar;
  std::int32_t child0 = -1;  ///< INV/NAND2 operand
  std::int32_t child1 = -1;  ///< NAND2 second operand
  std::int32_t var = -1;     ///< pin index for kVar leaves
};

/// A match pattern: rooted tree plus the number of distinct variables
/// (= cell pin count; a variable may appear at several leaves, e.g. XOR).
class Pattern {
 public:
  /// Parses an expression over the grammar
  ///   expr := var | "INV(" expr ")" | "NAND(" expr "," expr ")"
  /// where var is a lowercase identifier. Pin indices are assigned in order
  /// of first appearance (a=0, b=1, ... by convention). Aborts on malformed
  /// text; `parse_checked` returns a Status with the 1-based column instead.
  static Pattern parse(const std::string& text);
  static Result<Pattern> parse_checked(const std::string& text);

  /// Rebuilds a pattern from its structural parts (the dataset-blob loader's
  /// entry point — round-tripping through str()/parse would renumber pins by
  /// first appearance and break bit-identity with the packed library).
  /// Validates tree shape: every non-root node is referenced exactly once,
  /// all nodes reachable from the root, depth <= 64 (the parser's cap), leaf
  /// vars cover [0, num_vars) exactly, at least one INV or NAND node (a
  /// genlib cell needs one). Returns kParseError on violations.
  static Result<Pattern> from_parts(std::vector<PatternNode> nodes, std::int32_t root,
                                    std::uint32_t num_vars);

  const std::vector<PatternNode>& nodes() const { return nodes_; }
  std::int32_t root() const { return root_; }
  /// Kind of the root node — lets the matcher reject a (vertex, pattern)
  /// pair on a gate-kind mismatch before allocating any match state.
  PatternKind root_kind() const { return nodes_[static_cast<std::size_t>(root_)].kind; }
  std::uint32_t num_vars() const { return num_vars_; }
  /// Number of INV+NAND2 nodes (base gates the pattern covers).
  std::uint32_t num_gates() const;

  /// Truth table over num_vars() inputs (num_vars() <= 6); bit m is the
  /// output for minterm m with input i = bit i of m.
  std::uint64_t truth_table() const;

  /// Canonical expression string (for round-tripping and diagnostics).
  std::string str() const;

 private:
  bool eval(std::int32_t node, std::uint32_t minterm) const;
  std::string str(std::int32_t node) const;

  std::vector<PatternNode> nodes_;
  std::int32_t root_ = -1;
  std::uint32_t num_vars_ = 0;
};

}  // namespace cals
