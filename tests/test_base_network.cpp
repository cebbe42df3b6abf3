#include <gtest/gtest.h>

#include "netlist/base_network.hpp"
#include "util/strings.hpp"

namespace cals {
namespace {

TEST(BaseNetwork, StartsWithConst0) {
  BaseNetwork net;
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_EQ(net.kind(kConst0Node), NodeKind::kConst0);
  EXPECT_EQ(net.num_base_gates(), 0u);
}

TEST(BaseNetwork, StrashDeduplicatesNand) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n1 = net.add_nand2(a, b);
  const NodeId n2 = net.add_nand2(b, a);  // commutative normal form
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(net.num_nand2(), 1u);
}

TEST(BaseNetwork, StrashDeduplicatesInv) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  EXPECT_EQ(net.add_inv(a), net.add_inv(a));
  EXPECT_EQ(net.num_inv(), 1u);
}

TEST(BaseNetwork, InvInvFolds) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId inv = net.add_inv(a);
  EXPECT_EQ(net.add_inv(inv), a);
}

TEST(BaseNetwork, NandOfEqualInputsIsInv) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  EXPECT_EQ(net.add_nand2(a, a), net.add_inv(a));
}

TEST(BaseNetwork, ConstantFolding) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId one = net.const1();
  EXPECT_TRUE(net.is_const1(one));
  EXPECT_EQ(net.add_nand2(net.const0(), a), one);   // NAND(0,x)=1
  EXPECT_EQ(net.add_nand2(one, a), net.add_inv(a)); // NAND(1,x)=!x
}

TEST(BaseNetwork, FaninsPrecedeNode) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_and2(a, b);
  const NodeId d = net.add_or2(c, a);
  for (NodeId n : {c, d}) {
    if (net.kind(n) == NodeKind::kNand2) {
      EXPECT_LT(net.fanin1(n).v, n.v);
    }
    EXPECT_LT(net.fanin0(n).v, n.v);
  }
}

TEST(BaseNetwork, DerivedOperators) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  // AND2 = INV(NAND2); OR2 = NAND2(INV,INV)
  const NodeId and2 = net.add_and2(a, b);
  EXPECT_EQ(net.kind(and2), NodeKind::kInv);
  EXPECT_EQ(net.fanin0(and2), net.add_nand2(a, b));
  const NodeId or2 = net.add_or2(a, b);
  EXPECT_EQ(net.kind(or2), NodeKind::kNand2);
}

TEST(BaseNetwork, BalancedTreesShareViaStrash) {
  BaseNetwork net;
  std::vector<NodeId> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(net.add_pi(strprintf("i%d", i)));
  const NodeId t1 = net.add_and(ins);
  const std::uint32_t gates_before = net.num_base_gates();
  const NodeId t2 = net.add_and(ins);  // identical tree: fully shared
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(net.num_base_gates(), gates_before);
}

TEST(BaseNetwork, FanoutCounts) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n = net.add_nand2(a, b);
  const NodeId i1 = net.add_inv(n);
  net.add_po("o0", n);
  net.add_po("o1", i1);
  net.build_fanouts();
  EXPECT_EQ(net.fanout_count(n), 2u);  // inv reader + one PO
  EXPECT_EQ(net.po_refs(n), 1u);
  EXPECT_EQ(net.fanout_count(i1), 1u);  // PO only
  EXPECT_EQ(net.fanout_count(a), 1u);
  // Reader lists contain gates only.
  EXPECT_EQ(net.fanout_end(n) - net.fanout_begin(n), 1);
  EXPECT_EQ(*net.fanout_begin(n), i1);
}

TEST(BaseNetwork, CompactRemovesDeadLogic) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId live = net.add_nand2(a, b);
  net.add_inv(live);  // dead inverter (no PO)
  net.add_po("o", live);
  EXPECT_EQ(net.num_base_gates(), 2u);
  const auto remap = net.compact();
  EXPECT_EQ(net.num_base_gates(), 1u);
  EXPECT_EQ(net.pis().size(), 2u);
  EXPECT_EQ(net.pos().size(), 1u);
  EXPECT_NE(remap[live.v], UINT32_MAX);
}

TEST(BaseNetwork, CompactPreservesPiNamesAndPos) {
  BaseNetwork net;
  const NodeId a = net.add_pi("alpha");
  const NodeId b = net.add_pi("beta");
  net.add_po("out", net.add_or2(a, b));
  net.compact();
  EXPECT_EQ(net.pi_name(net.pis()[0]), "alpha");
  EXPECT_EQ(net.pi_name(net.pis()[1]), "beta");
  EXPECT_EQ(net.pos()[0].name, "out");
}

TEST(BaseNetwork, RenamePo) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  net.add_po("o0", a);
  net.rename_po(0, "result");
  EXPECT_EQ(net.pos()[0].name, "result");
}

TEST(BaseNetwork, XorStructure) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId x = net.add_xor2(a, b);
  EXPECT_EQ(net.kind(x), NodeKind::kNand2);
  EXPECT_EQ(net.num_base_gates(), 5u);  // 2 INV + 3 NAND
}

TEST(BaseNetworkDeath, AndOfNothingAborts) {
  BaseNetwork net;
  EXPECT_DEATH(net.add_and({}), "AND of zero inputs");
}

}  // namespace
}  // namespace cals
