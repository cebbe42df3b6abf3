#include <gtest/gtest.h>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "netlist/blif.hpp"
#include "netlist/sim.hpp"
#include "sop/pla_io.hpp"
#include "util/rng.hpp"
#include "workloads/presets.hpp"

namespace cals {
namespace {

/// End-to-end: PLA text -> synthesis -> mapping -> place -> route -> STA,
/// checking functional equivalence and cross-stage metric consistency.
TEST(Integration, PlaTextToTimedLayout) {
  const char* pla_text = R"(
.i 6
.o 3
.p 8
11---- 100
--11-- 110
----11 011
10-01- 101
0-1-0- 010
-0-1-0 001
011--- 100
---100 010
.e
)";
  const Pla pla = parse_pla_string(pla_text).value_or_die();
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(pla);

  // Functional check against the cover itself.
  for (std::uint64_t m = 0; m < 64; ++m) {
    std::vector<std::uint64_t> words(6, 0);
    for (std::uint32_t i = 0; i < 6; ++i)
      if ((m >> i) & 1ULL) words[i] = ~0ULL;
    const auto out = simulate64(net, words);
    for (std::uint32_t o = 0; o < 3; ++o)
      ASSERT_EQ(out[o] != 0, pla.eval(o, m)) << "o" << o << " m" << m;
  }

  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.4, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  const FlowRun run = context.run(options);
  EXPECT_TRUE(run.metrics.routable);
  EXPECT_GT(run.metrics.critical_path_ns, 0.0);

  // Mapped netlist equivalent to the base network.
  Rng rng(3);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> words(6);
    for (auto& w : words) w = rng.next();
    ASSERT_EQ(simulate64(context.network(), words), run.map.netlist.simulate64(words));
  }
}

TEST(Integration, BlifRoundTripThroughMapping) {
  // BLIF in, map, and compare against the parsed network.
  const char* blif = R"(
.model mid
.inputs a b c d
.outputs f g
.names a b x
11 1
.names c d y
1- 1
-1 1
.names x y f
10 1
01 1
.names x c g
00 1
.end
)";
  const BlifModel model = parse_blif_string(blif).value_or_die();
  BaseNetwork net = model.network;
  net.compact();
  net.build_fanouts();
  const Library lib = lib::make_corelib();
  std::vector<Point> pos(net.num_nodes(), Point{});
  const MapResult mapped = map_network(net, lib, pos, {});
  Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> words(4);
    for (auto& w : words) w = rng.next();
    ASSERT_EQ(simulate64(net, words), mapped.netlist.simulate64(words));
  }
}

TEST(Integration, SisModeTradesRoutabilityForArea) {
  // The Table 1 phenomenon at small scale: extraction reduces cell area but
  // increases routed wirelength per cell-area unit.
  const double scale = 0.1;
  const Pla pla = workloads::too_large_like(scale);
  const Library lib = lib::make_corelib();
  BaseNetwork base = synthesize_base(pla);
  BaseNetwork sis = synthesize_sis_mode(pla);
  const Floorplan fp =
      Floorplan::for_cell_area(base.num_base_gates() * 5.4, 0.55, lib.tech());
  FlowOptions options;
  options.replace_mapped = false;
  const FlowRun base_run = DesignContext(base, &lib, fp).run(options);
  const FlowRun sis_run = DesignContext(sis, &lib, fp).run(options);
  EXPECT_LT(sis_run.metrics.cell_area_um2, base_run.metrics.cell_area_um2);
  // Structural congestion: wirelength normalized by cell area is worse.
  const double base_ratio = base_run.metrics.wirelength_um / base_run.metrics.cell_area_um2;
  const double sis_ratio = sis_run.metrics.wirelength_um / sis_run.metrics.cell_area_um2;
  EXPECT_GT(sis_ratio, base_ratio);
}

TEST(Integration, KSweepShapesAtSmallScale) {
  // Miniature Table 2: area grows with K; the mapper's own wire estimate
  // (DP wire cost) shrinks then the area penalty takes over.
  const Pla pla = workloads::spla_like(0.08);
  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(pla);
  const Floorplan fp = Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.55, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;

  std::vector<double> areas;
  std::vector<double> wire_costs;
  for (double k : {0.0, 0.1, 1.0, 10.0}) {
    options.K = k;
    const FlowRun run = context.run(options);
    areas.push_back(run.metrics.cell_area_um2);
    wire_costs.push_back(run.map.stats.dp_wire_cost);
  }
  // Area: non-decreasing (within small duplication noise).
  for (std::size_t i = 1; i < areas.size(); ++i) EXPECT_GE(areas[i], areas[i - 1] * 0.995);
  // The mapper's wire estimate at K=10 is below the K=0 estimate.
  EXPECT_LT(wire_costs.back(), wire_costs.front());
}

}  // namespace
}  // namespace cals
