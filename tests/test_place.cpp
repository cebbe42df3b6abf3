#include <gtest/gtest.h>

#include "flow/baselines.hpp"
#include "place/partition_place.hpp"
#include "util/rng.hpp"
#include "workloads/plagen.hpp"

namespace cals {
namespace {

BaseNetwork small_circuit(std::uint64_t seed) {
  PlaGenSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.num_products = 60;
  spec.seed = seed;
  return synthesize_base(generate_pla(spec));
}

TEST(PlaceGraph, LowerBaseNetworkStructure) {
  BaseNetwork net = small_circuit(1);
  net.build_fanouts();
  const Floorplan fp = Floorplan::square_with_rows(10, TechParams{});
  const BasePlaceBinding binding = lower_base_network(net, fp);
  EXPECT_EQ(binding.pi_object.size(), net.pis().size());
  EXPECT_EQ(binding.po_object.size(), net.pos().size());
  // Every live gate has an object; pads are fixed on the die boundary.
  for (std::uint32_t obj : binding.pi_object) {
    EXPECT_TRUE(binding.graph.fixed[obj]);
    const Point p = binding.graph.fixed_pos[obj];
    EXPECT_TRUE(p.x == fp.die().lo.x || p.y == fp.die().hi.y);
  }
  for (const HyperNet& hnet : binding.graph.nets) EXPECT_GE(hnet.pins.size(), 2u);
}

TEST(PlaceGraph, DriverIsFirstPin) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_nand2(a, b);
  net.add_po("o", g);
  net.build_fanouts();
  const Floorplan fp = Floorplan::square_with_rows(4, TechParams{});
  const BasePlaceBinding binding = lower_base_network(net, fp);
  // The gate's net: driver (gate object) first, then the PO pad.
  bool found = false;
  for (const HyperNet& hnet : binding.graph.nets) {
    if (hnet.pins[0] == binding.node_object[g.v]) {
      EXPECT_EQ(hnet.pins.size(), 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GlobalPlace, AllObjectsInsideDie) {
  BaseNetwork net = small_circuit(2);
  net.build_fanouts();
  const Floorplan fp = Floorplan::square_with_rows(10, TechParams{});
  const BasePlaceBinding binding = lower_base_network(net, fp);
  const Placement placement = global_place(binding.graph, fp);
  for (std::uint32_t i = 0; i < binding.graph.num_objects; ++i)
    EXPECT_TRUE(fp.die().contains(placement.pos[i])) << "object " << i;
}

TEST(GlobalPlace, FixedObjectsStayPut) {
  BaseNetwork net = small_circuit(3);
  net.build_fanouts();
  const Floorplan fp = Floorplan::square_with_rows(10, TechParams{});
  const BasePlaceBinding binding = lower_base_network(net, fp);
  const Placement placement = global_place(binding.graph, fp);
  for (std::uint32_t i = 0; i < binding.graph.num_objects; ++i) {
    if (binding.graph.fixed[i]) {
      EXPECT_EQ(placement.pos[i], binding.graph.fixed_pos[i]);
    }
  }
}

TEST(GlobalPlace, Deterministic) {
  BaseNetwork net = small_circuit(4);
  net.build_fanouts();
  const Floorplan fp = Floorplan::square_with_rows(10, TechParams{});
  const BasePlaceBinding binding = lower_base_network(net, fp);
  const Placement p1 = global_place(binding.graph, fp);
  const Placement p2 = global_place(binding.graph, fp);
  EXPECT_EQ(p1.pos.size(), p2.pos.size());
  for (std::size_t i = 0; i < p1.pos.size(); ++i) EXPECT_EQ(p1.pos[i], p2.pos[i]);
}

TEST(GlobalPlace, BeatsRandomPlacementByFactor) {
  BaseNetwork net = small_circuit(5);
  net.build_fanouts();
  const Floorplan fp = Floorplan::square_with_rows(12, TechParams{});
  const BasePlaceBinding binding = lower_base_network(net, fp);
  const Placement placed = global_place(binding.graph, fp);

  Placement random;
  random.pos.assign(binding.graph.num_objects, {});
  Rng rng(99);
  for (std::uint32_t i = 0; i < binding.graph.num_objects; ++i)
    random.pos[i] = binding.graph.fixed[i]
                        ? binding.graph.fixed_pos[i]
                        : Point{fp.die().lo.x + rng.uniform() * fp.die().width(),
                                fp.die().lo.y + rng.uniform() * fp.die().height()};
  EXPECT_LT(placed.hpwl(binding.graph), 0.6 * random.hpwl(binding.graph));
}

TEST(GlobalPlace, SeedChangesButQualityHolds) {
  BaseNetwork net = small_circuit(6);
  net.build_fanouts();
  const Floorplan fp = Floorplan::square_with_rows(10, TechParams{});
  const BasePlaceBinding binding = lower_base_network(net, fp);
  PlaceOptions a;
  a.seed = 1;
  PlaceOptions b;
  b.seed = 2;
  const double h1 = global_place(binding.graph, fp, a).hpwl(binding.graph);
  const double h2 = global_place(binding.graph, fp, b).hpwl(binding.graph);
  EXPECT_LT(std::abs(h1 - h2) / std::max(h1, h2), 0.35);
}

TEST(Placement, EdgePadPositionsSplitAcrossTwoEdges) {
  const Rect die{{0, 0}, {100, 100}};
  const auto pads = edge_pad_positions(die, 10, /*west_north=*/true);
  ASSERT_EQ(pads.size(), 10u);
  int west = 0;
  int north = 0;
  for (const Point& p : pads) {
    if (p.x == 0.0) ++west;
    else if (p.y == 100.0) ++north;
    EXPECT_TRUE(die.contains(p));
  }
  EXPECT_EQ(west, 5);
  EXPECT_EQ(north, 5);

  const auto out_pads = edge_pad_positions(die, 3, /*west_north=*/false);
  int east = 0;
  int south = 0;
  for (const Point& p : out_pads) {
    if (p.x == 100.0) ++east;
    else if (p.y == 0.0) ++south;
  }
  EXPECT_EQ(east, 2);
  EXPECT_EQ(south, 1);
}

TEST(Placement, EdgePadPositionsDistinct) {
  const Rect die{{0, 0}, {50, 50}};
  const auto pads = edge_pad_positions(die, 40, true);
  for (std::size_t i = 0; i < pads.size(); ++i)
    for (std::size_t j = i + 1; j < pads.size(); ++j)
      EXPECT_FALSE(pads[i] == pads[j]) << i << "," << j;
}

TEST(Placement, HpwlOfKnownConfiguration) {
  PlaceGraph graph;
  const std::uint32_t a = graph.add_fixed({0, 0});
  const std::uint32_t b = graph.add_fixed({3, 4});
  const std::uint32_t c = graph.add_fixed({1, 2});
  graph.nets.push_back({{a, b, c}});
  Placement placement;
  placement.pos = {{0, 0}, {3, 4}, {1, 2}};
  EXPECT_DOUBLE_EQ(placement.hpwl(graph), 3.0 + 4.0);
}

}  // namespace
}  // namespace cals
