#include <gtest/gtest.h>

#include <string>

#include "flow/baselines.hpp"
#include "netlist/base_network.hpp"
#include "netlist/blif.hpp"
#include "util/strings.hpp"
#include "workloads/presets.hpp"

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

/// Every node of `want` keeps its id, kind and fanins in `net` (which may
/// hold nothing else), and the PIs and POs are unchanged.
void expect_same_nodes(const BaseNetwork& net, const std::vector<std::uint32_t>& remap,
                       const BaseNetwork& want) {
  ASSERT_EQ(net.num_nodes(), want.num_nodes());
  for (std::uint32_t i = 0; i < want.num_nodes(); ++i) {
    ASSERT_EQ(remap[i], i);
    const NodeId n{i};
    ASSERT_EQ(net.kind(n), want.kind(n)) << "node " << i;
    ASSERT_EQ(net.fanin0(n), want.fanin0(n)) << "node " << i;
    ASSERT_EQ(net.fanin1(n), want.fanin1(n)) << "node " << i;
  }
  EXPECT_EQ(net.num_base_gates(), want.num_base_gates());
  EXPECT_EQ(net.num_nand2(), want.num_nand2());
  ASSERT_EQ(net.pis(), want.pis());
  for (const NodeId pi : net.pis()) EXPECT_EQ(net.pi_name(pi), want.pi_name(pi));
  ASSERT_EQ(net.pos().size(), want.pos().size());
  for (std::size_t o = 0; o < net.pos().size(); ++o) {
    EXPECT_EQ(net.pos()[o].name, want.pos()[o].name);
    EXPECT_EQ(net.pos()[o].driver, want.pos()[o].driver);
  }
}

/// Compacts a compacted network again: as it is (every node live, so the
/// map is the identity), and with one dead gate appended, which forces the
/// rebuild. The rebuild reproduces the live nodes node for node, which is
/// why compact() may skip it when nothing is dead.
void expect_compact_is_identity(const BaseNetwork& compacted) {
  BaseNetwork again = compacted;
  const std::vector<std::uint32_t> remap = again.compact();
  ASSERT_EQ(remap.size(), compacted.num_nodes());
  expect_same_nodes(again, remap, compacted);

  BaseNetwork with_dead = compacted;
  const NodeId dead =
      with_dead.add_nand2(with_dead.pis().front(), NodeId{with_dead.num_nodes() - 1});
  ASSERT_EQ(dead.v, compacted.num_nodes()) << "the appended gate must be new";
  const std::vector<std::uint32_t> rebuilt = with_dead.compact();
  ASSERT_EQ(rebuilt.size(), compacted.num_nodes() + 1);
  EXPECT_EQ(rebuilt[dead.v], UINT32_MAX);
  expect_same_nodes(with_dead, rebuilt, compacted);
}

TEST(BaseNetwork, CompactingACompactedNetworkIsTheIdentity) {
  for (const auto make : {&workloads::spla_like, &workloads::pdc_like,
                          &workloads::too_large_like}) {
    const Pla pla = make(0.1);
    expect_compact_is_identity(synthesize_base(pla));
    expect_compact_is_identity(
        synthesize_sis_mode(pla, nullptr, workloads::sis_extract_options()));
  }
  BlifModel blif =
      parse_blif_file(std::string(CALS_TEST_CORPUS_DIR) + "/blif/seed_ok.blif").value_or_die();
  blif.network.compact();
  expect_compact_is_identity(blif.network);
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
