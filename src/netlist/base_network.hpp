#pragma once
/// \file base_network.hpp
/// The technology-independent logic network.
///
/// The paper's flow (Sec. 3) starts from "a technology independent logic
/// network of base functions" — two-input NANDs and inverters. This module
/// implements that network as an immutable-growing DAG with structural
/// hashing (strashing): identical subfunctions map to one node, which is what
/// creates the multi-fanout sharing technology mapping has to partition.
///
/// Invariants:
///  * node 0 is the constant-0 node;
///  * every fanin id is strictly smaller than the node id (topological by
///    construction);
///  * INV nodes have exactly one fanin, NAND2 nodes exactly two with
///    fanin0 <= fanin1 (commutative normal form for strashing).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.hpp"

namespace cals {

/// Strongly-typed node handle into a BaseNetwork.
struct NodeId {
  std::uint32_t v = 0;
  friend bool operator==(NodeId, NodeId) = default;
  friend bool operator<(NodeId a, NodeId b) { return a.v < b.v; }
};

/// The constant-0 node present in every network.
inline constexpr NodeId kConst0Node{0};

enum class NodeKind : std::uint8_t {
  kConst0,  ///< logic 0 (node 0 only)
  kPi,      ///< primary input
  kInv,     ///< inverter base gate
  kNand2,   ///< two-input NAND base gate
};

/// One primary output: a named reference to a driver node.
struct PrimaryOutput {
  std::string name;
  NodeId driver;
};

/// The raw arrays of a serialized network (dataset-blob section NETWORK);
/// BaseNetwork::from_parts validates them back into a network.
struct BaseNetworkParts {
  std::vector<NodeKind> kind;
  std::vector<NodeId> fanin0;
  std::vector<NodeId> fanin1;
  std::vector<NodeId> pis;
  std::vector<std::string> pi_names;  // parallel to pis
  std::vector<PrimaryOutput> pos;
};

class BaseNetwork {
 public:
  BaseNetwork();

  /// Rebuilds a network from serialized parts, re-checking every structural
  /// invariant (node 0 is const-0, fanins strictly below their node,
  /// NAND2 commutative normal form, PI bookkeeping consistent, PO drivers in
  /// range). The result is frozen: it serves reads and fanout queries but
  /// aborts on further construction. The strash table is not rebuilt (frozen
  /// networks never strash) and fanouts are rebuilt eagerly. Returns
  /// kParseError on any violation — never aborts, hostile blobs reach this.
  static Result<BaseNetwork> from_parts(BaseNetworkParts parts);

  // ----- construction -------------------------------------------------
  /// Adds a named primary input.
  NodeId add_pi(std::string name);
  /// Adds (or finds, via strashing) an inverter. Folds INV(INV(x)) -> x.
  NodeId add_inv(NodeId a);
  /// Adds (or finds) a two-input NAND. Folds constants and NAND(x,x).
  NodeId add_nand2(NodeId a, NodeId b);
  /// Convenience derived operators, built from INV/NAND2.
  NodeId add_and2(NodeId a, NodeId b);
  NodeId add_or2(NodeId a, NodeId b);
  NodeId add_xor2(NodeId a, NodeId b);
  /// Balanced n-ary AND / OR trees over base gates.
  NodeId add_and(const std::vector<NodeId>& ins);
  NodeId add_or(const std::vector<NodeId>& ins);
  NodeId const0() const { return kConst0Node; }
  NodeId const1();
  /// Registers a primary output.
  void add_po(std::string name, NodeId driver);
  /// Renames an existing primary output.
  void rename_po(std::size_t index, std::string name);

  // ----- structure ----------------------------------------------------
  std::uint32_t num_nodes() const { return static_cast<std::uint32_t>(kind_.size()); }
  NodeKind kind(NodeId n) const { return kind_[n.v]; }
  bool is_gate(NodeId n) const {
    return kind_[n.v] == NodeKind::kInv || kind_[n.v] == NodeKind::kNand2;
  }
  /// Fanin 0 (valid for INV and NAND2).
  NodeId fanin0(NodeId n) const { return fanin0_[n.v]; }
  /// Fanin 1 (valid for NAND2 only).
  NodeId fanin1(NodeId n) const { return fanin1_[n.v]; }
  std::uint32_t num_fanins(NodeId n) const {
    switch (kind_[n.v]) {
      case NodeKind::kInv: return 1;
      case NodeKind::kNand2: return 2;
      default: return 0;
    }
  }

  const std::vector<NodeId>& pis() const { return pis_; }
  const std::vector<PrimaryOutput>& pos() const { return pos_; }
  const std::string& pi_name(NodeId n) const;
  bool is_const1(NodeId n) const;

  /// Number of base gates (INV + NAND2) in the network (including dead ones;
  /// call compact() first for the live count the paper reports).
  std::uint32_t num_base_gates() const { return num_gates_; }
  std::uint32_t num_nand2() const { return num_nand2_; }
  std::uint32_t num_inv() const { return num_gates_ - num_nand2_; }

  // ----- fanout bookkeeping --------------------------------------------
  /// (Re)builds the CSR fanout structure; must be called after construction
  /// and before fanouts()/fanout_count() queries.
  void build_fanouts();
  bool fanouts_built() const { return fanouts_built_; }
  /// Gates + POs reading this node. Requires build_fanouts().
  std::uint32_t fanout_count(NodeId n) const;
  /// Reader gate nodes of `n` (POs not included). Requires build_fanouts().
  const NodeId* fanout_begin(NodeId n) const;
  const NodeId* fanout_end(NodeId n) const;
  /// Number of POs driven directly by `n`. Requires build_fanouts().
  std::uint32_t po_refs(NodeId n) const { return po_refs_[n.v]; }

  // ----- maintenance ----------------------------------------------------
  /// Removes nodes unreachable from the primary outputs, renumbering the
  /// survivors in topological order. Returns old-id -> new-id map
  /// (UINT32_MAX for removed nodes). Invalidates fanouts, unless no node is
  /// dead: then the network is left as it is and the map is the identity.
  std::vector<std::uint32_t> compact();

 private:
  NodeId push_node(NodeKind kind, NodeId a, NodeId b);
  NodeId strash_lookup(NodeKind kind, NodeId a, NodeId b);

  std::vector<NodeKind> kind_;
  std::vector<NodeId> fanin0_;
  std::vector<NodeId> fanin1_;
  std::vector<NodeId> pis_;
  std::vector<std::string> pi_names_;           // parallel to pis_
  std::unordered_map<std::uint32_t, std::uint32_t> pi_name_index_;  // node id -> pis_ index
  std::vector<PrimaryOutput> pos_;
  std::uint32_t num_gates_ = 0;
  std::uint32_t num_nand2_ = 0;
  bool frozen_ = false;  // from_parts networks reject further construction

  // strash table: key packs (kind, fanin0, fanin1)
  std::unordered_map<std::uint64_t, std::uint32_t> strash_;

  // fanout CSR
  bool fanouts_built_ = false;
  std::vector<std::uint32_t> fanout_offset_;
  std::vector<NodeId> fanout_data_;
  std::vector<std::uint32_t> po_refs_;
};

}  // namespace cals
