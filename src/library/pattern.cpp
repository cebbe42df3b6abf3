#include "library/pattern.hpp"

#include <cctype>
#include <map>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace cals {
namespace {

/// Internal control flow for parse_checked: converted to a Status at the
/// entry point, never escapes this translation unit.
struct PatternParseFail {
  const char* message;
  std::size_t pos;  // 0-based offset into the expression text
};

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::vector<PatternNode>& nodes;
  std::map<std::string, std::int32_t>& vars;

  [[noreturn]] void fail(const char* message) { throw PatternParseFail{message, pos}; }

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])) != 0)
      ++pos;
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  std::string ident() {
    skip_ws();
    std::size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) != 0 || text[pos] == '_'))
      ++pos;
    if (pos == start) fail("pattern: expected identifier");
    return text.substr(start, pos - start);
  }

  std::int32_t expr(std::size_t depth = 0) {
    // Pathological inputs (fuzzers, hostile genlibs) must not overflow the
    // stack; real cell patterns are a handful of levels deep.
    if (depth > 64) fail("pattern: nesting too deep");
    const std::string name = ident();
    if (name == "INV") {
      if (!consume('(')) fail("pattern: INV needs (");
      const std::int32_t child = expr(depth + 1);
      if (!consume(')')) fail("pattern: INV needs )");
      nodes.push_back({PatternKind::kInv, child, -1, -1});
      return static_cast<std::int32_t>(nodes.size() - 1);
    }
    if (name == "NAND") {
      if (!consume('(')) fail("pattern: NAND needs (");
      const std::int32_t left = expr(depth + 1);
      if (!consume(',')) fail("pattern: NAND needs ,");
      const std::int32_t right = expr(depth + 1);
      if (!consume(')')) fail("pattern: NAND needs )");
      nodes.push_back({PatternKind::kNand2, left, right, -1});
      return static_cast<std::int32_t>(nodes.size() - 1);
    }
    // Variable leaf; pin index by first appearance.
    auto [it, inserted] = vars.try_emplace(name, static_cast<std::int32_t>(vars.size()));
    nodes.push_back({PatternKind::kVar, -1, -1, it->second});
    return static_cast<std::int32_t>(nodes.size() - 1);
  }
};

}  // namespace

Result<Pattern> Pattern::parse_checked(const std::string& text) {
  Pattern p;
  std::map<std::string, std::int32_t> vars;
  Parser parser{text, 0, p.nodes_, vars};
  try {
    p.root_ = parser.expr();
    parser.skip_ws();
    if (parser.pos != text.size()) parser.fail("pattern: trailing characters");
    p.num_vars_ = static_cast<std::uint32_t>(vars.size());
    if (p.num_vars_ < 1 || p.num_vars_ > 6)
      parser.fail("pattern: 1..6 variables supported");
  } catch (const PatternParseFail& f) {
    return Status::parse_error(f.message, 0, static_cast<std::uint32_t>(f.pos + 1));
  }
  return p;
}

Pattern Pattern::parse(const std::string& text) {
  return parse_checked(text).value_or_die();
}

Result<Pattern> Pattern::from_parts(std::vector<PatternNode> nodes, std::int32_t root,
                                    std::uint32_t num_vars) {
  const auto bad = [](const char* message) { return Status::parse_error(message); };
  if (num_vars < 1 || num_vars > 6) return bad("pattern: 1..6 variables supported");
  const std::size_t n = nodes.size();
  if (n == 0 || n > 4096) return bad("pattern: bad node count");
  if (root < 0 || static_cast<std::size_t>(root) >= n) return bad("pattern: root out of range");

  const auto in_range = [n](std::int32_t c) {
    return c >= 0 && static_cast<std::size_t>(c) < n;
  };
  std::vector<std::uint8_t> referenced(n, 0);
  for (const PatternNode& node : nodes) {
    switch (node.kind) {
      case PatternKind::kVar:
        if (node.var < 0 || static_cast<std::uint32_t>(node.var) >= num_vars)
          return bad("pattern: var index out of range");
        break;
      case PatternKind::kInv:
        if (!in_range(node.child0)) return bad("pattern: INV child out of range");
        if (++referenced[static_cast<std::size_t>(node.child0)] > 1)
          return bad("pattern: node referenced twice");
        break;
      case PatternKind::kNand2:
        if (!in_range(node.child0) || !in_range(node.child1))
          return bad("pattern: NAND child out of range");
        if (++referenced[static_cast<std::size_t>(node.child0)] > 1 ||
            ++referenced[static_cast<std::size_t>(node.child1)] > 1)
          return bad("pattern: node referenced twice");
        break;
      default:
        return bad("pattern: unknown node kind");
    }
  }
  if (referenced[static_cast<std::size_t>(root)] != 0)
    return bad("pattern: root must not be a child");
  // In a tree, a variable root is the whole pattern: it covers no gate.
  if (nodes[static_cast<std::size_t>(root)].kind == PatternKind::kVar)
    return bad("pattern: no INV or NAND gate");

  // Single-parent + acyclic-from-root: walk from the root counting reachable
  // nodes and bounding depth at the parser's cap so the recursive
  // eval()/str() walkers stay stack-safe.
  std::vector<std::uint8_t> var_used(num_vars, 0);
  std::size_t visited = 0;
  std::vector<std::pair<std::int32_t, std::uint32_t>> stack{{root, 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    if (depth > 64) return bad("pattern: nesting too deep");
    ++visited;
    const PatternNode& node = nodes[static_cast<std::size_t>(id)];
    if (node.kind == PatternKind::kVar) {
      var_used[static_cast<std::uint32_t>(node.var)] = 1;
    } else {
      stack.push_back({node.child0, depth + 1});
      if (node.kind == PatternKind::kNand2) stack.push_back({node.child1, depth + 1});
    }
  }
  // Every non-root referenced exactly once + `visited` nodes reached from the
  // root means the graph is a tree iff all nodes were reached (an unreachable
  // cycle would keep `visited` short).
  if (visited != n) return bad("pattern: disconnected or cyclic nodes");
  for (std::uint32_t v = 0; v < num_vars; ++v)
    if (var_used[v] == 0) return bad("pattern: unused variable index");

  Pattern p;
  p.nodes_ = std::move(nodes);
  p.root_ = root;
  p.num_vars_ = num_vars;
  return p;
}

std::uint32_t Pattern::num_gates() const {
  std::uint32_t n = 0;
  for (const PatternNode& node : nodes_)
    if (node.kind != PatternKind::kVar) ++n;
  return n;
}

bool Pattern::eval(std::int32_t node, std::uint32_t minterm) const {
  const PatternNode& n = nodes_[static_cast<std::size_t>(node)];
  switch (n.kind) {
    case PatternKind::kVar: return ((minterm >> n.var) & 1u) != 0;
    case PatternKind::kInv: return !eval(n.child0, minterm);
    case PatternKind::kNand2: return !(eval(n.child0, minterm) && eval(n.child1, minterm));
  }
  return false;
}

std::uint64_t Pattern::truth_table() const {
  std::uint64_t tt = 0;
  const std::uint32_t rows = 1u << num_vars_;
  for (std::uint32_t m = 0; m < rows; ++m)
    if (eval(root_, m)) tt |= (1ULL << m);
  return tt;
}

std::string Pattern::str(std::int32_t node) const {
  const PatternNode& n = nodes_[static_cast<std::size_t>(node)];
  switch (n.kind) {
    case PatternKind::kVar: return std::string(1, static_cast<char>('a' + n.var));
    case PatternKind::kInv: return "INV(" + str(n.child0) + ")";
    case PatternKind::kNand2: return "NAND(" + str(n.child0) + "," + str(n.child1) + ")";
  }
  return "?";
}

std::string Pattern::str() const { return str(root_); }

}  // namespace cals
