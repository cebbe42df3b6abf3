#include <gtest/gtest.h>

#include <cstdio>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "library/genlib.hpp"
#include "map/mapper.hpp"
#include "timing/sta.hpp"
#include "netlist/sim.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "workloads/plagen.hpp"
#include "workloads/presets.hpp"

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

TEST(MatchSet, SlotsMaterializeTheMatcherReferenceMatches) {
  // build_match_set streams the enumeration into flat arrays; matches_at
  // lists the same enumeration as Match objects. Slot for slot they agree.
  const Library lib = lib::make_corelib();
  for (const bool sis_mode : {false, true}) {
    const BaseNetwork net = random_circuit(41, sis_mode);
    const auto positions = jitter_positions(net, 41);
    for (const PartitionStrategy strategy :
         {PartitionStrategy::kDagon, PartitionStrategy::kCones,
          PartitionStrategy::kPlacementDriven}) {
      const SubjectForest forest = partition_dag(net, strategy, positions);
      const Matcher matcher(net, forest, lib);
      const MatchSet set = build_match_set(net, forest, matcher, lib, positions);
      ASSERT_EQ(set.first.size(), net.num_nodes() + 1);
      for (std::uint32_t i = 0; i < net.num_nodes(); ++i) {
        const NodeId v{i};
        const std::vector<Match> expected =
            forest.in_tree(v) ? matcher.matches_at(v) : std::vector<Match>{};
        ASSERT_EQ(set.slots_end(v) - set.slots_begin(v), expected.size()) << "node " << i;
        for (std::uint32_t k = 0; k < expected.size(); ++k) {
          const Match got = set.materialize(set.slots_begin(v) + k);
          EXPECT_EQ(got.cell, expected[k].cell);
          EXPECT_EQ(got.pattern_index, expected[k].pattern_index);
          EXPECT_EQ(got.pins, expected[k].pins);
          EXPECT_EQ(got.covered, expected[k].covered);
        }
      }
    }
  }
}

// ---- golden match databases -------------------------------------------------
// FNV-1a over every MatchSet array (length, then raw bytes), in declaration
// order. Any change to the slot order, the pin/covered/duplication order or
// the summation order of a center of mass changes these digests.

std::uint64_t match_set_digest(const MatchSet& m) {
  Fnv64 h;
  const auto add = [&h](const auto& array) {
    const std::uint64_t size = array.size();
    h.update(&size, sizeof size);
    h.update(array.data(), array.size() * sizeof(*array.data()));
  };
  add(m.first);
  add(m.match_pos);
  add(m.cell_area);
  add(m.cell);
  add(m.pattern_index);
  add(m.pin_first);
  add(m.dup_first);
  add(m.cov_first);
  add(m.pin_node);
  add(m.pin_flags);
  add(m.pin_pos);
  add(m.dup_node);
  add(m.cov_node);
  return h.digest();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The match databases of one preset at x0.1, on the base placement a
/// DesignContext computes for it.
std::vector<std::uint64_t> preset_match_digests(const Pla& pla, const Library& lib,
                                                const std::vector<PartitionStrategy>& strategies) {
  BaseNetwork net = synthesize_base(pla);
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.3, 0.58, lib.tech());
  const DesignContext context(std::move(net), &lib, fp);
  std::vector<std::uint64_t> digests;
  for (const PartitionStrategy strategy : strategies)
    digests.push_back(match_set_digest(
        build_match_database(context.network(), lib, context.node_positions(), strategy)
            .matches));
  return digests;
}

struct PresetCase {
  const char* name;
  Pla (*make)(double);
};
const PresetCase kPresets[] = {{"spla", &workloads::spla_like},
                               {"pdc", &workloads::pdc_like},
                               {"too_large", &workloads::too_large_like}};

TEST(MatchSetGolden, PresetsUnderEveryPartitionStrategy) {
  const Library lib = lib::make_corelib();
  // Per preset: dagon, cones, placement-driven.
  const std::uint64_t expected[3][3] = {
      {0x698b2e4e7fb85d28ull, 0xe5eaabf97824f3bcull, 0x67fa8f1d207fadc0ull},
      {0x36220adcd7fe0955ull, 0xfe8256c362967c3eull, 0xe2555bca73a7b592ull},
      {0xaa5ddb18414cecb5ull, 0xd2f806335175b700ull, 0x63436fb6ec78b76eull},
  };
  for (std::size_t p = 0; p < 3; ++p) {
    const std::vector<std::uint64_t> got = preset_match_digests(
        kPresets[p].make(0.1), lib,
        {PartitionStrategy::kDagon, PartitionStrategy::kCones,
         PartitionStrategy::kPlacementDriven});
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_EQ(hex(got[s]), hex(expected[p][s])) << kPresets[p].name << " strategy " << s;
  }
}

TEST(MatchSetGolden, PresetsWithSeedGenlib) {
  const Library lib =
      parse_genlib_file(std::string(CALS_TEST_CORPUS_DIR) + "/genlib/seed_ok.genlib")
          .value_or_die();
  const std::uint64_t expected[3] = {0x88d20419c958e879ull, 0x47b7c07357a87c97ull,
                                     0x670be63e565708efull};
  for (std::size_t p = 0; p < 3; ++p) {
    const std::vector<std::uint64_t> got = preset_match_digests(
        kPresets[p].make(0.1), lib, {PartitionStrategy::kPlacementDriven});
    EXPECT_EQ(hex(got[0]), hex(expected[p])) << kPresets[p].name;
  }
}

}  // namespace
}  // namespace cals
