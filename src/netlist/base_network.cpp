#include "netlist/base_network.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace cals {
namespace {

std::uint64_t strash_key(NodeKind kind, NodeId a, NodeId b) {
  // 2 bits of kind | 31 bits of each fanin is plenty (networks < 2^31 nodes).
  return (static_cast<std::uint64_t>(kind) << 62) |
         (static_cast<std::uint64_t>(a.v) << 31) | static_cast<std::uint64_t>(b.v);
}

}  // namespace

BaseNetwork::BaseNetwork() {
  // Node 0: the constant-0 node.
  kind_.push_back(NodeKind::kConst0);
  fanin0_.push_back(NodeId{0});
  fanin1_.push_back(NodeId{0});
}

Result<BaseNetwork> BaseNetwork::from_parts(BaseNetworkParts parts) {
  const auto bad = [](const char* message) { return Status::parse_error(message); };
  const std::size_t n = parts.kind.size();
  if (n == 0 || n >= (1ull << 31)) return bad("network: bad node count");
  if (parts.fanin0.size() != n || parts.fanin1.size() != n)
    return bad("network: fanin arrays mismatched");
  if (parts.pi_names.size() != parts.pis.size())
    return bad("network: pi name arrays mismatched");
  if (parts.kind[0] != NodeKind::kConst0) return bad("network: node 0 must be const-0");

  std::uint32_t num_gates = 0;
  std::uint32_t num_nand2 = 0;
  std::size_t num_pi_nodes = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t f0 = parts.fanin0[i].v;
    const std::uint32_t f1 = parts.fanin1[i].v;
    switch (parts.kind[i]) {
      case NodeKind::kConst0:
        return bad("network: const-0 beyond node 0");
      case NodeKind::kPi:
        if (f0 != 0 || f1 != 0) return bad("network: PI with fanins");
        ++num_pi_nodes;
        break;
      case NodeKind::kInv:
        // push_node stores INV as (a, a).
        if (f0 >= i || f1 != f0) return bad("network: bad INV fanins");
        ++num_gates;
        break;
      case NodeKind::kNand2:
        if (f0 >= i || f1 >= i || f1 < f0) return bad("network: bad NAND2 fanins");
        ++num_gates;
        ++num_nand2;
        break;
      default:
        return bad("network: unknown node kind");
    }
  }

  std::unordered_map<std::uint32_t, std::uint32_t> pi_name_index;
  pi_name_index.reserve(parts.pis.size());
  for (std::size_t i = 0; i < parts.pis.size(); ++i) {
    const std::uint32_t v = parts.pis[i].v;
    if (v >= n || parts.kind[v] != NodeKind::kPi) return bad("network: bad PI reference");
    if (!pi_name_index.emplace(v, static_cast<std::uint32_t>(i)).second)
      return bad("network: duplicate PI reference");
  }
  if (pi_name_index.size() != num_pi_nodes) return bad("network: unregistered PI node");
  for (const PrimaryOutput& po : parts.pos)
    if (po.driver.v >= n) return bad("network: PO driver out of range");

  BaseNetwork net;
  net.kind_ = std::move(parts.kind);
  net.fanin0_ = std::move(parts.fanin0);
  net.fanin1_ = std::move(parts.fanin1);
  net.pis_ = std::move(parts.pis);
  net.pi_names_ = std::move(parts.pi_names);
  net.pi_name_index_ = std::move(pi_name_index);
  net.pos_ = std::move(parts.pos);
  net.num_gates_ = num_gates;
  net.num_nand2_ = num_nand2;
  net.frozen_ = true;
  net.build_fanouts();
  return net;
}

NodeId BaseNetwork::push_node(NodeKind kind, NodeId a, NodeId b) {
  CALS_CHECK_MSG(!frozen_, "cannot grow a from_parts network");
  const NodeId id{num_nodes()};
  kind_.push_back(kind);
  fanin0_.push_back(a);
  fanin1_.push_back(b);
  if (kind == NodeKind::kInv || kind == NodeKind::kNand2) {
    ++num_gates_;
    if (kind == NodeKind::kNand2) ++num_nand2_;
  }
  fanouts_built_ = false;
  return id;
}

NodeId BaseNetwork::strash_lookup(NodeKind kind, NodeId a, NodeId b) {
  const std::uint64_t key = strash_key(kind, a, b);
  auto [it, inserted] = strash_.try_emplace(key, num_nodes());
  if (!inserted) return NodeId{it->second};
  return push_node(kind, a, b);
}

NodeId BaseNetwork::add_pi(std::string name) {
  const NodeId id = push_node(NodeKind::kPi, kConst0Node, kConst0Node);
  pi_name_index_.emplace(id.v, static_cast<std::uint32_t>(pis_.size()));
  pis_.push_back(id);
  pi_names_.push_back(std::move(name));
  return id;
}

NodeId BaseNetwork::add_inv(NodeId a) {
  CALS_CHECK(a.v < num_nodes());
  if (kind_[a.v] == NodeKind::kInv) return fanin0_[a.v];  // INV(INV(x)) = x
  return strash_lookup(NodeKind::kInv, a, a);
}

NodeId BaseNetwork::add_nand2(NodeId a, NodeId b) {
  CALS_CHECK(a.v < num_nodes() && b.v < num_nodes());
  if (b < a) std::swap(a, b);  // commutative normal form
  if (a == b) return add_inv(a);
  if (a == kConst0Node) return const1();        // NAND(0, x) = 1
  if (is_const1(a)) return add_inv(b);          // NAND(1, x) = !x
  if (is_const1(b)) return add_inv(a);
  return strash_lookup(NodeKind::kNand2, a, b);
}

NodeId BaseNetwork::add_and2(NodeId a, NodeId b) { return add_inv(add_nand2(a, b)); }

NodeId BaseNetwork::add_or2(NodeId a, NodeId b) {
  return add_nand2(add_inv(a), add_inv(b));
}

NodeId BaseNetwork::add_xor2(NodeId a, NodeId b) {
  // Tree form: XOR(a,b) = NAND(NAND(a, !b), NAND(!a, b)).
  return add_nand2(add_nand2(a, add_inv(b)), add_nand2(add_inv(a), b));
}

NodeId BaseNetwork::add_and(const std::vector<NodeId>& ins) {
  CALS_CHECK_MSG(!ins.empty(), "AND of zero inputs");
  // Balanced reduction keeps logic depth ~log2(n).
  std::vector<NodeId> level = ins;
  while (level.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(add_and2(level[i], level[i + 1]));
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

NodeId BaseNetwork::add_or(const std::vector<NodeId>& ins) {
  CALS_CHECK_MSG(!ins.empty(), "OR of zero inputs");
  std::vector<NodeId> level = ins;
  while (level.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(add_or2(level[i], level[i + 1]));
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

NodeId BaseNetwork::const1() { return strash_lookup(NodeKind::kInv, kConst0Node, kConst0Node); }

bool BaseNetwork::is_const1(NodeId n) const {
  return kind_[n.v] == NodeKind::kInv && fanin0_[n.v] == kConst0Node;
}

void BaseNetwork::add_po(std::string name, NodeId driver) {
  CALS_CHECK(driver.v < num_nodes());
  pos_.push_back({std::move(name), driver});
  fanouts_built_ = false;
}

void BaseNetwork::rename_po(std::size_t index, std::string name) {
  CALS_CHECK(index < pos_.size());
  pos_[index].name = std::move(name);
}

const std::string& BaseNetwork::pi_name(NodeId n) const {
  auto it = pi_name_index_.find(n.v);
  CALS_CHECK_MSG(it != pi_name_index_.end(), "pi_name of a non-PI node");
  return pi_names_[it->second];
}

void BaseNetwork::build_fanouts() {
  const std::uint32_t n = num_nodes();
  fanout_offset_.assign(n + 1, 0);
  po_refs_.assign(n, 0);

  auto count_edge = [&](NodeId src) { ++fanout_offset_[src.v + 1]; };
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id{i};
    if (kind_[i] == NodeKind::kInv) count_edge(fanin0_[i]);
    if (kind_[i] == NodeKind::kNand2) {
      count_edge(fanin0_[i]);
      count_edge(fanin1_[i]);
    }
    (void)id;
  }
  for (std::uint32_t i = 0; i < n; ++i) fanout_offset_[i + 1] += fanout_offset_[i];
  fanout_data_.assign(fanout_offset_[n], NodeId{});
  std::vector<std::uint32_t> cursor(fanout_offset_.begin(), fanout_offset_.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto add_edge = [&](NodeId src) { fanout_data_[cursor[src.v]++] = NodeId{i}; };
    if (kind_[i] == NodeKind::kInv) add_edge(fanin0_[i]);
    if (kind_[i] == NodeKind::kNand2) {
      add_edge(fanin0_[i]);
      add_edge(fanin1_[i]);
    }
  }
  for (const PrimaryOutput& po : pos_) ++po_refs_[po.driver.v];
  fanouts_built_ = true;
}

std::uint32_t BaseNetwork::fanout_count(NodeId n) const {
  CALS_CHECK_MSG(fanouts_built_, "call build_fanouts() first");
  return fanout_offset_[n.v + 1] - fanout_offset_[n.v] + po_refs_[n.v];
}

const NodeId* BaseNetwork::fanout_begin(NodeId n) const {
  CALS_CHECK_MSG(fanouts_built_, "call build_fanouts() first");
  return fanout_data_.data() + fanout_offset_[n.v];
}

const NodeId* BaseNetwork::fanout_end(NodeId n) const {
  CALS_CHECK_MSG(fanouts_built_, "call build_fanouts() first");
  return fanout_data_.data() + fanout_offset_[n.v + 1];
}

std::vector<std::uint32_t> BaseNetwork::compact() {
  CALS_CHECK_MSG(!frozen_, "cannot compact a from_parts network");
  constexpr std::uint32_t kDead = UINT32_MAX;
  const std::uint32_t n = num_nodes();

  // Mark reachable from POs (plus const0 and all PIs: PIs stay to preserve
  // the interface even if logically unused).
  std::vector<bool> live(n, false);
  live[kConst0Node.v] = true;
  for (NodeId pi : pis_) live[pi.v] = true;
  std::vector<NodeId> stack;
  for (const PrimaryOutput& po : pos_) stack.push_back(po.driver);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (live[v.v]) continue;
    live[v.v] = true;
    if (kind_[v.v] == NodeKind::kInv) stack.push_back(fanin0_[v.v]);
    if (kind_[v.v] == NodeKind::kNand2) {
      stack.push_back(fanin0_[v.v]);
      stack.push_back(fanin1_[v.v]);
    }
  }

  // With every node live the rebuild below reproduces the network node for
  // node: each fold and strash decision depends only on the nodes before it,
  // which are unchanged. Skip it.
  std::vector<std::uint32_t> remap(n, kDead);
  if (std::find(live.begin(), live.end(), false) == live.end()) {
    std::iota(remap.begin(), remap.end(), 0u);
    return remap;
  }
  BaseNetwork out;
  // Node 0 (const0) already exists in `out`.
  remap[kConst0Node.v] = kConst0Node.v;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (!live[i]) continue;
    switch (kind_[i]) {
      case NodeKind::kPi: {
        auto it = pi_name_index_.find(i);
        CALS_CHECK(it != pi_name_index_.end());
        remap[i] = out.add_pi(pi_names_[it->second]).v;
        break;
      }
      case NodeKind::kInv:
        remap[i] = out.add_inv(NodeId{remap[fanin0_[i].v]}).v;
        break;
      case NodeKind::kNand2:
        remap[i] = out.add_nand2(NodeId{remap[fanin0_[i].v]}, NodeId{remap[fanin1_[i].v]}).v;
        break;
      case NodeKind::kConst0:
        remap[i] = kConst0Node.v;
        break;
    }
  }
  for (const PrimaryOutput& po : pos_) out.add_po(po.name, NodeId{remap[po.driver.v]});

  *this = std::move(out);
  return remap;
}

}  // namespace cals
