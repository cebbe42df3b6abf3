#include <gtest/gtest.h>

#include "library/corelib.hpp"
#include "map/cover.hpp"

namespace cals {
namespace {

struct Ctx {
  BaseNetwork net;
  Library lib{lib::make_corelib()};
  std::vector<Point> pos;

  void finish() {
    net.build_fanouts();
    if (pos.size() != net.num_nodes()) pos.resize(net.num_nodes(), Point{});
  }

  std::vector<VertexCover> cover(PartitionStrategy strategy, const CoverOptions& options) {
    finish();
    const SubjectForest forest = partition_dag(net, strategy, pos);
    const Matcher matcher(net, forest, lib);
    return cover_forest(net, forest, matcher, lib, pos, options);
  }
};

TEST(Cover, MinAreaPicksComplexCell) {
  Ctx c;
  const NodeId a = c.net.add_pi("a");
  const NodeId b = c.net.add_pi("b");
  const NodeId d = c.net.add_pi("d");
  const NodeId root = c.net.add_nand2(c.net.add_inv(c.net.add_nand2(a, b)), d);
  c.net.add_po("o", root);
  const auto cover = c.cover(PartitionStrategy::kDagon, {});
  // NAND3 (area 4 sites) beats NAND2+INV+NAND2 (3+2+3).
  EXPECT_EQ(c.lib.cell(cover[root.v].match.cell).name(), "NAND3");
  EXPECT_NEAR(cover[root.v].area_cost, 4 * 4.096, 1e-9);
}

TEST(Cover, AreaCostAccumulatesSubtrees) {
  Ctx c;
  const NodeId a = c.net.add_pi("a");
  const NodeId b = c.net.add_pi("b");
  const NodeId d = c.net.add_pi("d");
  const NodeId e = c.net.add_pi("e");
  // Two disjoint NAND3 trees feeding a final NAND2 — cost = 2*NAND3 + ...
  const NodeId t1 = c.net.add_nand2(c.net.add_inv(c.net.add_nand2(a, b)), d);
  const NodeId t2 = c.net.add_nand2(c.net.add_inv(c.net.add_nand2(d, e)), a);
  const NodeId root = c.net.add_nand2(c.net.add_inv(t1), c.net.add_inv(t2));
  c.net.add_po("o", root);
  const auto cover = c.cover(PartitionStrategy::kDagon, {});
  // Whatever the exact cover, the root's area cost covers the whole tree and
  // is at least the sum of two NAND3-equivalents.
  EXPECT_GE(cover[root.v].area_cost, 2 * 4 * 4.096);
  EXPECT_TRUE(cover[root.v].valid);
}

TEST(Cover, WireCostFollowsEq2) {
  // Single NAND2 with fanins at known positions: WIRE1 = dist to both pins.
  Ctx c;
  const NodeId a = c.net.add_pi("a");
  const NodeId b = c.net.add_pi("b");
  const NodeId root = c.net.add_nand2(a, b);
  c.net.add_po("o", root);
  c.pos.resize(c.net.num_nodes(), Point{});
  c.pos[a.v] = {0, 0};
  c.pos[b.v] = {10, 0};
  c.pos[root.v] = {4, 3};
  CoverOptions options;
  options.K = 1.0;
  const auto cover = c.cover(PartitionStrategy::kDagon, options);
  // pos(m) = root position (single covered gate); WIRE = |4-0|+3 + |10-4|+3.
  EXPECT_NEAR(cover[root.v].wire_cost, (4 + 3) + (6 + 3), 1e-9);
  EXPECT_NEAR(cover[root.v].cost,
              cover[root.v].area_cost + options.K * cover[root.v].wire_cost, 1e-12);
}

TEST(Cover, CenterOfMassPosition) {
  Ctx c;
  const NodeId a = c.net.add_pi("a");
  const NodeId b = c.net.add_pi("b");
  const NodeId d = c.net.add_pi("d");
  const NodeId inner = c.net.add_nand2(a, b);
  const NodeId mid = c.net.add_inv(inner);
  const NodeId root = c.net.add_nand2(mid, d);
  c.net.add_po("o", root);
  c.pos.resize(c.net.num_nodes(), Point{});
  c.pos[inner.v] = {0, 0};
  c.pos[mid.v] = {3, 0};
  c.pos[root.v] = {6, 0};
  const auto cover = c.cover(PartitionStrategy::kDagon, {});
  ASSERT_EQ(c.lib.cell(cover[root.v].match.cell).name(), "NAND3");
  EXPECT_EQ(cover[root.v].pos, (Point{3, 0}));
}

TEST(Cover, LargeKPrefersShortWires) {
  // Root NAND2 whose left operand can be covered either as one NAND3-into-
  // AOI-ish complex or as small gates. Give geometry where the complex
  // cell's center of mass sits far from its pins; with a huge K the cover
  // must switch to more, smaller cells placed near their fanins.
  Ctx c;
  const NodeId a = c.net.add_pi("a");
  const NodeId b = c.net.add_pi("b");
  const NodeId d = c.net.add_pi("d");
  const NodeId inner = c.net.add_nand2(a, b);
  const NodeId mid = c.net.add_inv(inner);
  const NodeId root = c.net.add_nand2(mid, d);
  c.net.add_po("o", root);
  c.pos.resize(c.net.num_nodes(), Point{});
  c.pos[a.v] = {0, 0};
  c.pos[b.v] = {0, 10};
  c.pos[d.v] = {100, 0};
  c.pos[inner.v] = {2, 5};
  c.pos[mid.v] = {3, 5};
  c.pos[root.v] = {100, 5};

  CoverOptions min_area;
  const auto area_cover = c.cover(PartitionStrategy::kDagon, min_area);
  EXPECT_EQ(c.lib.cell(area_cover[root.v].match.cell).name(), "NAND3");

  CoverOptions wire_heavy;
  wire_heavy.K = 100.0;
  const auto wire_cover = c.cover(PartitionStrategy::kDagon, wire_heavy);
  // NAND3 center of mass = (35, 5): pays ~35+ to reach a and b. The split
  // cover (NAND2 at (2,5), INV, NAND2 at root) keeps every hop short.
  EXPECT_EQ(c.lib.cell(wire_cover[root.v].match.cell).name(), "NAND2");
  EXPECT_LT(wire_cover[root.v].wire_cost, area_cover[root.v].wire_cost);
  EXPECT_GE(wire_cover[root.v].area_cost, area_cover[root.v].area_cost);
}

TEST(Cover, DuplicationChargedForBuriedMultiFanout) {
  // s = NAND(a,b) feeds INV g1 (nearest) and NAND g2. With PDP, s joins
  // g1's tree; covering g1 as AND2 buries s, which g2 still needs.
  Ctx c;
  const NodeId a = c.net.add_pi("a");
  const NodeId b = c.net.add_pi("b");
  const NodeId d = c.net.add_pi("d");
  const NodeId s = c.net.add_nand2(a, b);
  const NodeId g1 = c.net.add_inv(s);
  const NodeId g2 = c.net.add_nand2(s, d);
  c.net.add_po("o1", g1);
  c.net.add_po("o2", g2);
  c.pos.resize(c.net.num_nodes(), Point{});
  c.pos[s.v] = {0, 0};
  c.pos[g1.v] = {1, 0};
  c.pos[g2.v] = {5, 0};

  CoverOptions charged;  // default: charge_duplication = true
  const auto with_charge = c.cover(PartitionStrategy::kPlacementDriven, charged);
  CoverOptions uncharged;
  uncharged.charge_duplication = false;
  const auto without_charge = c.cover(PartitionStrategy::kPlacementDriven, uncharged);

  // Uncharged DP sees AND2 (3 sites) < NAND2+INV contribution and buries s;
  // charged DP adds s's own NAND2 re-instantiation (3 sites) and keeps the
  // boundary: g1 covered as INV with pin s.
  EXPECT_EQ(c.lib.cell(without_charge[g1.v].match.cell).name(), "AND2");
  EXPECT_EQ(c.lib.cell(with_charge[g1.v].match.cell).name(), "INV");
}

TEST(Cover, DelayObjectivePrefersShallowCells) {
  // A NAND3 chain: in delay mode, the 1-stage NAND3 must not lose to a
  // 3-stage NAND2/INV/NAND2 decomposition of itself.
  Ctx c;
  const NodeId a = c.net.add_pi("a");
  const NodeId b = c.net.add_pi("b");
  const NodeId d = c.net.add_pi("d");
  const NodeId root = c.net.add_nand2(c.net.add_inv(c.net.add_nand2(a, b)), d);
  c.net.add_po("o", root);
  CoverOptions options;
  options.objective = MapObjective::kDelay;
  const auto cover = c.cover(PartitionStrategy::kDagon, options);
  EXPECT_EQ(c.lib.cell(cover[root.v].match.cell).name(), "NAND3");
  EXPECT_GT(cover[root.v].arrival, 0.0);
}

TEST(Cover, EveryLiveGateGetsACover) {
  Ctx c;
  const NodeId a = c.net.add_pi("a");
  const NodeId b = c.net.add_pi("b");
  NodeId x = c.net.add_nand2(a, b);
  for (int i = 0; i < 6; ++i) x = c.net.add_nand2(c.net.add_inv(x), i % 2 == 0 ? a : b);
  c.net.add_po("o", x);
  const auto cover = c.cover(PartitionStrategy::kDagon, {});
  for (std::uint32_t i = 0; i < c.net.num_nodes(); ++i) {
    if (c.net.is_gate(NodeId{i})) {
      EXPECT_TRUE(cover[i].valid) << "gate " << i;
    }
  }
}

}  // namespace
}  // namespace cals
