#include <gtest/gtest.h>

#include "flow/baselines.hpp"
#include "library/corelib.hpp"
#include "map/buffering.hpp"
#include "map/mapper.hpp"
#include "netlist/sim.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/plagen.hpp"

namespace cals {
namespace {

/// One INV driving `n` NAND2 sinks scattered on a line.
MappedNetlist star(const Library& lib, std::uint32_t n) {
  MappedNetlist netlist(&lib);
  const Signal a = netlist.add_pi("a");
  const Signal b = netlist.add_pi("b");
  const Signal hub = netlist.add_instance(lib.cell_id("INV"), {a}, {0, 0});
  for (std::uint32_t i = 0; i < n; ++i) {
    const Signal g = netlist.add_instance(lib.cell_id("NAND2"), {hub, b},
                                          {static_cast<double>(i), 5.0});
    netlist.add_po(strprintf("o%u", i), g);
  }
  return netlist;
}

std::uint32_t max_fanout_of(const MappedNetlist& netlist) {
  std::vector<std::uint32_t> fanout(netlist.num_pis() + netlist.num_instances(), 0);
  auto slot = [&](Signal s) {
    return s.is_pi() ? s.index() : netlist.num_pis() + s.index();
  };
  for (std::uint32_t i = 0; i < netlist.num_instances(); ++i)
    for (Signal s : netlist.instance(i).fanins) ++fanout[slot(s)];
  for (const MappedPo& po : netlist.pos())
    if (!po.driver.is_const()) ++fanout[slot(po.driver)];
  std::uint32_t best = 0;
  for (std::uint32_t f : fanout) best = std::max(best, f);
  return best;
}

TEST(Buffering, CapsFanout) {
  const Library lib = lib::make_corelib();
  const MappedNetlist before = star(lib, 60);
  BufferingOptions options;
  options.max_fanout = 8;
  BufferingStats stats;
  const MappedNetlist after = buffer_high_fanout(before, options, &stats);
  EXPECT_GT(stats.buffers_inserted, 0u);
  EXPECT_GE(stats.nets_split, 1u);
  EXPECT_EQ(stats.max_fanout_before, 60u);
  EXPECT_LE(max_fanout_of(after), 8u);
}

TEST(Buffering, PreservesFunction) {
  const Library lib = lib::make_corelib();
  const MappedNetlist before = star(lib, 40);
  BufferingOptions options;
  options.max_fanout = 4;
  const MappedNetlist after = buffer_high_fanout(before, options);
  Rng rng(5);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> words(2);
    for (auto& w : words) w = rng.next();
    ASSERT_EQ(before.simulate64(words), after.simulate64(words));
  }
}

TEST(Buffering, NoOpWhenUnderLimit) {
  const Library lib = lib::make_corelib();
  const MappedNetlist before = star(lib, 5);
  BufferingOptions options;
  options.max_fanout = 16;
  BufferingStats stats;
  const MappedNetlist after = buffer_high_fanout(before, options, &stats);
  EXPECT_EQ(stats.buffers_inserted, 0u);
  EXPECT_EQ(after.num_instances(), before.num_instances());
}

TEST(Buffering, BuffersPlacedNearTheirSinkClusters) {
  const Library lib = lib::make_corelib();
  // Two far-apart sink clusters: each buffer should sit inside one cluster.
  MappedNetlist netlist(&lib);
  const Signal a = netlist.add_pi("a");
  const Signal b = netlist.add_pi("b");
  const Signal hub = netlist.add_instance(lib.cell_id("INV"), {a}, {50, 50});
  for (int i = 0; i < 6; ++i) {
    const double x = i < 3 ? 0.0 + i : 100.0 + i;
    const Signal g = netlist.add_instance(lib.cell_id("NAND2"), {hub, b}, {x, 0.0});
    netlist.add_po(strprintf("o%d", i), g);
  }
  BufferingOptions options;
  options.max_fanout = 3;
  const MappedNetlist buffered = buffer_high_fanout(netlist, options);
  // Both over-limit signals (hub and PI b, 6 sinks each) get one buffer per
  // geometric cluster: two buffers on each side, none in the middle.
  const CellId buf = lib.cell_id("BUF");
  int left = 0;
  int right = 0;
  for (std::uint32_t i = 0; i < buffered.num_instances(); ++i) {
    if (buffered.instance(i).cell == buf) {
      if (buffered.instance(i).pos.x < 50.0) ++left;
      else ++right;
      EXPECT_LT(std::abs(buffered.instance(i).pos.x - 50.0), 56.0);
    }
  }
  EXPECT_EQ(left, 2);
  EXPECT_EQ(right, 2);
}

TEST(Buffering, HandlesPiFanoutAndConstantPos) {
  const Library lib = lib::make_corelib();
  MappedNetlist netlist(&lib);
  const Signal a = netlist.add_pi("a");
  for (int i = 0; i < 20; ++i) {
    const Signal g =
        netlist.add_instance(lib.cell_id("INV"), {a}, {static_cast<double>(i), 0.0});
    netlist.add_po(strprintf("o%d", i), g);
  }
  netlist.add_po("tied", Signal::const0());
  BufferingOptions options;
  options.max_fanout = 4;
  const MappedNetlist buffered = buffer_high_fanout(netlist, options);
  EXPECT_LE(max_fanout_of(buffered), 4u);
  EXPECT_EQ(buffered.pos().back().driver, Signal::const0());
  Rng rng(7);
  std::vector<std::uint64_t> words{rng.next()};
  EXPECT_EQ(netlist.simulate64(words), buffered.simulate64(words));
}

TEST(Buffering, EndToEndOnMappedCircuit) {
  PlaGenSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 8;
  spec.num_products = 120;
  spec.seed = 99;
  const Pla pla = generate_pla(spec);
  BaseNetwork net = synthesize_base(pla);
  net.build_fanouts();
  const Library lib = lib::make_corelib();
  std::vector<Point> pos(net.num_nodes(), Point{});
  const MapResult mapped = map_network(net, lib, pos, {});
  BufferingOptions options;
  options.max_fanout = 12;
  BufferingStats stats;
  const MappedNetlist buffered = buffer_high_fanout(mapped.netlist, options, &stats);
  EXPECT_LE(max_fanout_of(buffered), 12u);
  Rng rng(17);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> words(12);
    for (auto& w : words) w = rng.next();
    ASSERT_EQ(mapped.netlist.simulate64(words), buffered.simulate64(words));
  }
}

TEST(BufferingDeath, RejectsSillyLimit) {
  const Library lib = lib::make_corelib();
  const MappedNetlist before = star(lib, 4);
  BufferingOptions options;
  options.max_fanout = 1;
  EXPECT_DEATH(buffer_high_fanout(before, options), "max_fanout");
}

}  // namespace
}  // namespace cals
