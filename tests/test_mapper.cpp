#include <gtest/gtest.h>

#include "flow/baselines.hpp"
#include "library/corelib.hpp"
#include "map/mapper.hpp"
#include "timing/sta.hpp"
#include "netlist/sim.hpp"
#include "util/rng.hpp"
#include "workloads/plagen.hpp"

namespace cals {
namespace {

std::vector<Point> jitter_positions(const BaseNetwork& net, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pos(net.num_nodes());
  for (auto& p : pos) p = {rng.uniform() * 200.0, rng.uniform() * 200.0};
  return pos;
}

/// Checks mapped netlist vs base network on random stimuli.
void expect_equivalent(const BaseNetwork& net, const MappedNetlist& mapped,
                       std::uint64_t seed) {
  ASSERT_EQ(mapped.num_pis(), net.pis().size());
  ASSERT_EQ(mapped.pos().size(), net.pos().size());
  Rng rng(seed);
  for (int round = 0; round < 16; ++round) {
    std::vector<std::uint64_t> words(net.pis().size());
    for (auto& w : words) w = rng.next();
    const auto expect = simulate64(net, words);
    const auto got = mapped.simulate64(words);
    ASSERT_EQ(expect, got) << "round " << round;
  }
}

BaseNetwork random_circuit(std::uint64_t seed, bool sis_mode = false) {
  PlaGenSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 8;
  spec.num_products = 90;
  spec.care_probability = 0.45;
  spec.outputs_per_product = 2.0;
  spec.seed = seed;
  const Pla pla = generate_pla(spec);
  BaseNetwork net = sis_mode ? synthesize_sis_mode(pla) : synthesize_base(pla);
  net.build_fanouts();
  return net;
}

class MapperEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, PartitionStrategy, double>> {
};

TEST_P(MapperEquivalence, MappedNetlistMatchesBaseNetwork) {
  const auto [seed, strategy, k] = GetParam();
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(seed);
  const auto positions = jitter_positions(net, seed + 1000);
  MapperOptions options;
  options.partition = strategy;
  options.cover.K = k;
  const MapResult result = map_network(net, lib, positions, options);
  expect_equivalent(net, result.netlist, seed + 5);
  EXPECT_EQ(result.stats.num_cells, result.netlist.num_instances());
  EXPECT_NEAR(result.stats.cell_area, result.netlist.total_cell_area(), 1e-6);
  EXPECT_GT(result.stats.num_trees, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsStrategiesK, MapperEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4, 5),
                       ::testing::Values(PartitionStrategy::kDagon,
                                         PartitionStrategy::kCones,
                                         PartitionStrategy::kPlacementDriven),
                       ::testing::Values(0.0, 0.1, 10.0)));

TEST(Mapper, SisModeNetworkAlsoMapsCorrectly) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(7, /*sis_mode=*/true);
  const auto positions = jitter_positions(net, 99);
  const MapResult result = map_network(net, lib, positions, {});
  expect_equivalent(net, result.netlist, 11);
}

TEST(Mapper, DagonHasNoDuplication) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(8);
  const auto positions = jitter_positions(net, 8);
  MapperOptions options;
  options.partition = PartitionStrategy::kDagon;
  const MapResult result = map_network(net, lib, positions, options);
  EXPECT_EQ(result.stats.duplicated_signals, 0u);
}

TEST(Mapper, MappedAreaBelowNaiveBaseCellArea) {
  // Min-area mapping must beat 1:1 replacement of each base gate.
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(9);
  const auto positions = jitter_positions(net, 9);
  const MapResult result = map_network(net, lib, positions, {});
  const double naive = net.num_nand2() * lib.cell(lib.cell_id("NAND2")).area() +
                       net.num_inv() * lib.cell(lib.cell_id("INV")).area();
  EXPECT_LT(result.stats.cell_area, naive);
}

TEST(Mapper, KIncreasesAreaMonotonePressure) {
  // Cell area (the DP's primary term) cannot decrease when a big wire
  // penalty is added; allow tiny slack for duplication interactions.
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(10);
  const auto positions = jitter_positions(net, 10);
  MapperOptions k0;
  MapperOptions k_big;
  k_big.cover.K = 50.0;
  const double area0 = map_network(net, lib, positions, k0).stats.cell_area;
  const double area1 = map_network(net, lib, positions, k_big).stats.cell_area;
  EXPECT_GE(area1, area0 * 0.99);
}

TEST(Mapper, InstancePositionsInsideBoundingBoxOfPlacement) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(11);
  const auto positions = jitter_positions(net, 11);
  const MapResult result = map_network(net, lib, positions, {});
  for (std::uint32_t i = 0; i < result.netlist.num_instances(); ++i) {
    const Point p = result.netlist.instance(i).pos;
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 200.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 200.0);
  }
}

TEST(Mapper, ConstantOutputsBecomeTieOffs) {
  // A tautological and a contradictory output map to constant signals, not
  // cells, and survive the whole flow (simulation, lowering, STA).
  const Library lib = lib::make_corelib();
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po("one", net.const1());
  net.add_po("zero", net.const0());
  net.add_po("f", net.add_nand2(a, b));
  net.compact();
  net.build_fanouts();
  std::vector<Point> pos(net.num_nodes(), Point{});
  const MapResult result = map_network(net, lib, pos, {});
  EXPECT_EQ(result.netlist.pos()[0].driver, Signal::const1());
  EXPECT_EQ(result.netlist.pos()[1].driver, Signal::const0());
  const auto out = result.netlist.simulate64({0x0f0fULL, 0x3333ULL});
  EXPECT_EQ(out[0], ~0ULL);
  EXPECT_EQ(out[1], 0ULL);
  EXPECT_EQ(out[2], ~(0x0f0fULL & 0x3333ULL));
  // Lowering and STA handle tied-off pads.
  const Floorplan fp = Floorplan::square_with_rows(6, TechParams{});
  const MappedPlaceBinding binding = result.netlist.lower(fp);
  Placement placement = result.netlist.seed_placement(binding);
  RoutingGrid grid(fp, {});
  const RouteResult routed = route(grid, binding.graph, placement);
  const StaResult sta = run_sta(result.netlist, binding, routed);
  EXPECT_DOUBLE_EQ(sta.po_arrival[0], 0.0);
  EXPECT_DOUBLE_EQ(sta.po_arrival[1], 0.0);
  EXPECT_GT(sta.po_arrival[2], 0.0);
  EXPECT_EQ(sta.critical.end, "f");
}

TEST(Mapper, Deterministic) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(12);
  const auto positions = jitter_positions(net, 12);
  MapperOptions options;
  options.cover.K = 0.1;
  const MapResult r1 = map_network(net, lib, positions, options);
  const MapResult r2 = map_network(net, lib, positions, options);
  ASSERT_EQ(r1.netlist.num_instances(), r2.netlist.num_instances());
  EXPECT_DOUBLE_EQ(r1.stats.cell_area, r2.stats.cell_area);
  for (std::uint32_t i = 0; i < r1.netlist.num_instances(); ++i) {
    EXPECT_EQ(r1.netlist.instance(i).cell, r2.netlist.instance(i).cell);
    EXPECT_EQ(r1.netlist.instance(i).fanins, r2.netlist.instance(i).fanins);
  }
}

void expect_identical_map(const MapResult& a, const MapResult& b) {
  ASSERT_EQ(a.netlist.num_instances(), b.netlist.num_instances());
  for (std::uint32_t i = 0; i < a.netlist.num_instances(); ++i) {
    EXPECT_EQ(a.netlist.instance(i).cell, b.netlist.instance(i).cell);
    EXPECT_EQ(a.netlist.instance(i).fanins, b.netlist.instance(i).fanins);
    EXPECT_EQ(a.netlist.instance(i).pos, b.netlist.instance(i).pos);
  }
  EXPECT_EQ(a.stats.num_cells, b.stats.num_cells);
  EXPECT_DOUBLE_EQ(a.stats.cell_area, b.stats.cell_area);
  EXPECT_DOUBLE_EQ(a.stats.dp_wire_cost, b.stats.dp_wire_cost);
  EXPECT_EQ(a.stats.duplicated_signals, b.stats.duplicated_signals);
  EXPECT_EQ(a.stats.num_trees, b.stats.num_trees);
}

TEST(Mapper, CachedPathIdenticalAcrossKAndMetrics) {
  // One MatchDatabase serves every K of a sweep: map_network_cached must
  // reproduce map_network bit for bit, for both distance metrics.
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(31);
  const auto positions = jitter_positions(net, 31);
  for (const DistanceMetric metric : {DistanceMetric::kManhattan, DistanceMetric::kEuclidean}) {
    const MatchDatabase db = build_match_database(
        net, lib, positions, PartitionStrategy::kPlacementDriven, metric);
    for (const double k : {0.05, 10.0}) {
      MapperOptions options;
      options.cover.K = k;
      options.cover.metric = metric;
      expect_identical_map(map_network(net, lib, positions, options),
                           map_network_cached(net, lib, positions, db, options.cover));
    }
  }
}

TEST(Mapper, CachedPathIdenticalForAllPartitionStrategies) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(32);
  const auto positions = jitter_positions(net, 32);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kDagon, PartitionStrategy::kCones,
        PartitionStrategy::kPlacementDriven}) {
    const MatchDatabase db = build_match_database(net, lib, positions, strategy);
    MapperOptions options;
    options.partition = strategy;
    options.cover.K = 0.1;
    expect_identical_map(map_network(net, lib, positions, options),
                         map_network_cached(net, lib, positions, db, options.cover));
  }
}

TEST(MapperDeath, CachedPathRejectsMetricMismatch) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(33);
  const auto positions = jitter_positions(net, 33);
  const MatchDatabase db =
      build_match_database(net, lib, positions, PartitionStrategy::kPlacementDriven,
                           DistanceMetric::kManhattan);
  CoverOptions cover;
  cover.metric = DistanceMetric::kEuclidean;
  EXPECT_DEATH(map_network_cached(net, lib, positions, db, cover), "metric");
}

TEST(Mapper, TransitiveWireCostAblationStillCorrect) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(13);
  const auto positions = jitter_positions(net, 13);
  MapperOptions options;
  options.cover.K = 0.1;
  options.cover.transitive_wire_cost = true;
  const MapResult result = map_network(net, lib, positions, options);
  expect_equivalent(net, result.netlist, 17);
}

TEST(Mapper, DelayObjectiveCorrectAndShallower) {
  const Library lib = lib::make_corelib();
  BaseNetwork net = random_circuit(14);
  const auto positions = jitter_positions(net, 14);
  MapperOptions area_mode;
  MapperOptions delay_mode;
  delay_mode.cover.objective = MapObjective::kDelay;
  const MapResult by_area = map_network(net, lib, positions, area_mode);
  const MapResult by_delay = map_network(net, lib, positions, delay_mode);
  expect_equivalent(net, by_delay.netlist, 23);
  // Delay mapping pays area for speed.
  EXPECT_GE(by_delay.stats.cell_area, by_area.stats.cell_area * 0.999);
}

}  // namespace
}  // namespace cals
