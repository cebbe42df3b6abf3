#include <gtest/gtest.h>

#include <cmath>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "map/mapper.hpp"
#include "place/partition_place.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "workloads/plagen.hpp"
#include "workloads/presets.hpp"

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

// ---- golden positions -------------------------------------------------------
// FNV-1a over the raw bytes of Placement::pos. Any change to the bisection
// order, the FM move sequence or the rng draws changes these digests.

std::uint64_t position_digest(const Placement& placement) {
  return fnv1a64_bytes(placement.pos.data(), placement.pos.size() * sizeof(Point));
}

struct SplaPlaceGolden {
  BaseNetwork net;
  Floorplan fp;

  static const Library& library() {
    static const Library lib = lib::make_corelib();
    return lib;
  }
  static const SplaPlaceGolden& get() {
    static const SplaPlaceGolden golden = [] {
      BaseNetwork net = synthesize_base(workloads::spla_like(0.1));
      net.build_fanouts();
      // The floorplan of RouteGolden (test_route_equivalence.cpp).
      const Floorplan fp =
          Floorplan::for_cell_area(net.num_base_gates() * 5.3, 0.58, library().tech());
      return SplaPlaceGolden{std::move(net), fp};
    }();
    return golden;
  }
};

TEST(GlobalPlaceGolden, SplaLikeBaseNetwork) {
  const SplaPlaceGolden& golden = SplaPlaceGolden::get();
  const BasePlaceBinding binding = lower_base_network(golden.net, golden.fp);
  const Placement placement = global_place(binding.graph, golden.fp);
  EXPECT_EQ(position_digest(placement), 0x884605478bc094e9ull);
}

TEST(GlobalPlaceGolden, SplaLikeMinAreaMappedNetlist) {
  const SplaPlaceGolden& golden = SplaPlaceGolden::get();
  const DesignContext context(golden.net, &SplaPlaceGolden::library(), golden.fp);
  const MapResult mapped =
      map_network(golden.net, SplaPlaceGolden::library(), context.node_positions(), {});
  const MappedPlaceBinding binding = mapped.netlist.lower(golden.fp);
  PlaceOptions options;  // as replace_mapped=true places it, with non-default knobs
  options.fm_passes = 5;
  options.balance_tolerance = 0.05;
  options.min_bin_objects = 8;
  options.seed = 7;
  const Placement placement = global_place(binding.graph, golden.fp, options);
  EXPECT_EQ(position_digest(placement), 0x05b22bf9f48ba6a4ull);
}

/// Random hypergraph: pads fixed on the die boundary, some zero-width
/// movable objects, mostly small nets with a few of up to 40 pins, and some
/// nets that list one object twice.
PlaceGraph random_graph(std::uint64_t seed, const Rect& die) {
  Rng rng(seed);
  PlaceGraph graph;
  for (std::uint32_t i = 0; i < 16; ++i) {
    const double t = (i + 0.5) / 16.0;
    graph.add_fixed(i % 2 == 0 ? Point{die.lo.x, die.lo.y + t * die.height()}
                               : Point{die.lo.x + t * die.width(), die.hi.y});
  }
  const auto movable = static_cast<std::uint32_t>(400 + rng.below(400));
  for (std::uint32_t i = 0; i < movable; ++i)
    graph.add_object(rng.below(10) == 0 ? 0.0 : 0.8 * static_cast<double>(1 + rng.below(5)));
  const std::uint32_t num_nets = movable + movable / 4;
  for (std::uint32_t n = 0; n < num_nets; ++n) {
    const auto size = static_cast<std::uint32_t>(rng.below(12) == 0 ? 2 + rng.below(39)
                                                                    : 2 + rng.below(3));
    HyperNet net;
    for (std::uint32_t k = 0; k < size; ++k)
      net.pins.push_back(static_cast<std::uint32_t>(rng.below(graph.num_objects)));
    if (rng.below(6) == 0) net.pins.push_back(net.pins[rng.below(size)]);
    graph.nets.push_back(std::move(net));
  }
  return graph;
}

TEST(GlobalPlaceGolden, RandomGraphsWithRepeatedPins) {
  struct Case {
    std::uint64_t seed;
    std::uint32_t fm_passes;
    std::uint32_t min_bin_objects;
    double balance_tolerance;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {11, 3, 3, 0.1, 0x8c79de3455604dc7ull},
      {12, 1, 1, 0.02, 0x9a04dd69b953a211ull},
      {13, 5, 9, 0.14, 0x656471221b006b5cull},
      {14, 2, 5, 0.07, 0x2882286492bcc69cull},
  };
  const Floorplan fp = Floorplan::square_with_rows(24, TechParams{});
  for (const Case& c : cases) {
    const PlaceGraph graph = random_graph(c.seed, fp.die());
    PlaceOptions options;
    options.fm_passes = c.fm_passes;
    options.min_bin_objects = c.min_bin_objects;
    options.balance_tolerance = c.balance_tolerance;
    options.seed = c.seed;
    EXPECT_EQ(position_digest(global_place(graph, fp, options)), c.digest)
        << "seed " << c.seed;
  }
}

/// Base networks shaped like perfbench's kloop_cliff designs: spla- and
/// pdc-like presets at x0.35 on a die trimmed to utilization 0.86. These
/// carry the 33-61-pin nets that nearly every region of a placement touches.
TEST(GlobalPlaceGolden, KloopShapedBaseNetworks) {
  const TechParams& tech = SplaPlaceGolden::library().tech();
  const std::pair<Pla, std::uint64_t> cases[] = {
      {workloads::spla_like(0.35), 0x89bb2a479945f3ddull},
      {workloads::pdc_like(0.35), 0xf01923f5e1cb491dull},
  };
  for (const auto& [pla, digest] : cases) {
    BaseNetwork net = synthesize_base(pla);
    const double core = net.num_base_gates() * 5.3 / 0.86;
    const auto rows =
        static_cast<std::uint32_t>(std::lround(std::sqrt(core) / tech.row_height_um));
    const Floorplan fp(rows, core / (rows * tech.row_height_um), tech);
    net.compact();
    net.build_fanouts();
    const BasePlaceBinding binding = lower_base_network(net, fp);
    EXPECT_EQ(position_digest(global_place(binding.graph, fp)), digest)
        << binding.graph.num_objects << " objects";
  }
}

/// Random hypergraph with wide nets: some of 40-80 pins, objects listed two
/// and three times in one net, zero-width objects.
PlaceGraph wide_random_graph(std::uint64_t seed, const Rect& die) {
  Rng rng(seed);
  PlaceGraph graph;
  for (std::uint32_t i = 0; i < 12; ++i) {
    const double t = (i + 0.5) / 12.0;
    graph.add_fixed(i % 2 == 0 ? Point{die.hi.x, die.lo.y + t * die.height()}
                               : Point{die.lo.x + t * die.width(), die.lo.y});
  }
  const auto movable = static_cast<std::uint32_t>(150 + rng.below(250));
  for (std::uint32_t i = 0; i < movable; ++i)
    graph.add_object(rng.below(8) == 0 ? 0.0 : 0.6 * static_cast<double>(1 + rng.below(6)));
  const std::uint32_t num_nets = movable + movable / 3;
  for (std::uint32_t n = 0; n < num_nets; ++n) {
    const std::uint64_t kind = rng.below(20);
    const auto size = static_cast<std::uint32_t>(kind == 0   ? 40 + rng.below(41)
                                                 : kind < 3 ? 5 + rng.below(20)
                                                            : 2 + rng.below(3));
    HyperNet net;
    for (std::uint32_t k = 0; k < size; ++k)
      net.pins.push_back(static_cast<std::uint32_t>(rng.below(graph.num_objects)));
    const std::uint64_t repeat = rng.below(8);
    if (repeat == 0) net.pins.push_back(net.pins[rng.below(size)]);
    if (repeat == 1) {
      const std::uint32_t pin = net.pins[rng.below(size)];
      net.pins.insert(net.pins.begin() + rng.below(size), pin);
      net.pins.push_back(pin);
    }
    graph.nets.push_back(std::move(net));
  }
  return graph;
}

TEST(GlobalPlaceGolden, ManyRandomGraphs) {
  const Floorplan fp = Floorplan::square_with_rows(18, TechParams{});
  Fnv64 digest;
  for (std::uint64_t seed = 100; seed < 148; ++seed) {
    const PlaceGraph graph = wide_random_graph(seed, fp.die());
    PlaceOptions options;
    options.fm_passes = 1 + seed % 5;
    options.min_bin_objects = 1 + seed % 9;
    options.balance_tolerance = 0.02 + 0.02 * static_cast<double>(seed % 7);
    options.seed = seed;
    const Placement placement = global_place(graph, fp, options);
    digest.update(placement.pos.data(), placement.pos.size() * sizeof(Point));
  }
  EXPECT_EQ(digest.digest(), 0x700ff352c4e59137ull);
}

}  // namespace
}  // namespace cals
