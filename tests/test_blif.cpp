#include <gtest/gtest.h>

#include "netlist/blif.hpp"
#include "library/corelib.hpp"
#include "map/mapper.hpp"
#include "netlist/sim.hpp"

namespace cals {
namespace {

const char* kSmall = R"(
# a tiny model
.model tiny
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.names a g
0 1
.end
)";

TEST(Blif, ParsesStructure) {
  const BlifModel model = parse_blif_string(kSmall).value_or_die();
  EXPECT_EQ(model.name, "tiny");
  EXPECT_EQ(model.network.pis().size(), 3u);
  EXPECT_EQ(model.network.pos().size(), 2u);
}

TEST(Blif, SemanticsMatchCover) {
  const BlifModel model = parse_blif_string(kSmall).value_or_die();
  // f = (a&b) | c ; g = !a
  const std::uint64_t wa = 0xaaaaaaaaaaaaaaaaULL;
  const std::uint64_t wb = 0xccccccccccccccccULL;
  const std::uint64_t wc = 0xf0f0f0f0f0f0f0f0ULL;
  const auto out = simulate64(model.network, {wa, wb, wc});
  EXPECT_EQ(out[0], (wa & wb) | wc);
  EXPECT_EQ(out[1], ~wa);
}

TEST(Blif, OutOfOrderTables) {
  const char* text = R"(
.model ooo
.inputs a b
.outputs f
.names t2 f
1 1
.names t1 t2
0 1
.names a b t1
11 1
.end
)";
  const BlifModel model = parse_blif_string(text).value_or_die();
  const std::uint64_t wa = 0xaaaaaaaaaaaaaaaaULL;
  const std::uint64_t wb = 0xccccccccccccccccULL;
  EXPECT_EQ(simulate64(model.network, {wa, wb})[0], ~(wa & wb));
}

TEST(Blif, ConstantTables) {
  const char* text = R"(
.model consts
.inputs a
.outputs one zero
.names one
1
.names zero
.end
)";
  const BlifModel model = parse_blif_string(text).value_or_die();
  const auto out = simulate64(model.network, {0x1234ULL});
  EXPECT_EQ(out[0], ~0ULL);
  EXPECT_EQ(out[1], 0ULL);
}

TEST(Blif, LineContinuation) {
  const char* text = ".model c\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n";
  const BlifModel model = parse_blif_string(text).value_or_die();
  EXPECT_EQ(model.network.pis().size(), 2u);
}

TEST(Blif, RoundTripPreservesFunction) {
  const BlifModel model = parse_blif_string(kSmall).value_or_die();
  const std::string text = write_blif_string(model.network, "tiny");
  const BlifModel again = parse_blif_string(text).value_or_die();
  ASSERT_EQ(again.network.pis().size(), model.network.pis().size());
  ASSERT_EQ(again.network.pos().size(), model.network.pos().size());
  EXPECT_EQ(random_signature(model.network, 8, 5), random_signature(again.network, 8, 5));
}

TEST(Blif, WriterEmitsNandInvOnly) {
  const BlifModel model = parse_blif_string(kSmall).value_or_die();
  const std::string text = write_blif_string(model.network, "tiny");
  // Every multi-input table row is a NAND2 cover or a single-literal alias.
  EXPECT_NE(text.find("0- 1"), std::string::npos);
  EXPECT_EQ(text.find("111 1"), std::string::npos);
}

TEST(Blif, LatchesBecomePseudoIo) {
  // A 2-bit counter-ish core: next-state logic between two latches.
  const char* text = R"(
.model counter
.inputs en
.outputs q1_out
.latch d0 q0 re clk 0
.latch d1 q1 2
.names en q0 d0
10 1
01 1
.names en q0 q1 d1
1-0 1
-11 1
.names q1 q1_out
1 1
.end
)";
  const BlifModel model = parse_blif_string(text).value_or_die();
  ASSERT_EQ(model.latches.size(), 2u);
  EXPECT_EQ(model.latches[0].input, "d0");
  EXPECT_EQ(model.latches[0].output, "q0");
  EXPECT_EQ(model.latches[0].initial, '0');
  EXPECT_EQ(model.latches[1].initial, '2');
  EXPECT_EQ(model.num_real_pis, 1u);
  EXPECT_EQ(model.num_real_pos, 1u);
  // Combinational core: PIs = {en, q0, q1}, POs = {q1_out, d0, d1}.
  ASSERT_EQ(model.network.pis().size(), 3u);
  ASSERT_EQ(model.network.pos().size(), 3u);
  EXPECT_EQ(model.network.pi_name(model.network.pis()[1]), "q0");
  EXPECT_EQ(model.network.pos()[1].name, "d0");

  // Next-state function d0 = en XOR q0 simulates correctly.
  const std::uint64_t en = 0xaaaaaaaaaaaaaaaaULL;
  const std::uint64_t q0 = 0xccccccccccccccccULL;
  const std::uint64_t q1 = 0xf0f0f0f0f0f0f0f0ULL;
  const auto out = simulate64(model.network, {en, q0, q1});
  EXPECT_EQ(out[1], en ^ q0);
  EXPECT_EQ(out[2], (en & ~q1) | (q0 & q1));
  EXPECT_EQ(out[0], q1);
}

TEST(Blif, SequentialCoreIsMappable) {
  const char* text = R"(
.model seq
.inputs a
.outputs y
.latch d q 1
.names a q d
11 1
.names q y
0 1
.end
)";
  BlifModel model = parse_blif_string(text).value_or_die();
  model.network.compact();
  model.network.build_fanouts();
  const Library lib = lib::make_corelib();
  std::vector<Point> pos(model.network.num_nodes(), Point{});
  const MapResult mapped = map_network(model.network, lib, pos, {});
  EXPECT_EQ(mapped.netlist.num_pis(), 2u);   // a + pseudo q
  EXPECT_EQ(mapped.netlist.pos().size(), 2u);  // y + pseudo d
  const auto out = mapped.netlist.simulate64({0xff00ff00ff00ff00ULL, 0x0f0f0f0f0f0f0f0fULL});
  EXPECT_EQ(out[0], ~0x0f0f0f0f0f0f0f0fULL);
  EXPECT_EQ(out[1], 0xff00ff00ff00ff00ULL & 0x0f0f0f0f0f0f0f0fULL);
}

TEST(Blif, UndrivenOutputIsParseError) {
  const Result<BlifModel> model = parse_blif_string(".model x\n.inputs a\n.outputs f\n.end\n");
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), ErrorCode::kParseError);
  EXPECT_NE(model.status().message().find("undriven"), std::string::npos);
}

TEST(Blif, CyclicIsParseError) {
  const char* text = ".model x\n.inputs a\n.outputs f\n.names f g\n1 1\n.names g f\n1 1\n.end\n";
  const Result<BlifModel> model = parse_blif_string(text);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), ErrorCode::kParseError);
  EXPECT_NE(model.status().message().find("cyclic"), std::string::npos);
}

}  // namespace
}  // namespace cals
