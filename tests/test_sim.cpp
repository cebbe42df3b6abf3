#include <gtest/gtest.h>

#include "netlist/sim.hpp"
#include "util/strings.hpp"

namespace cals {
namespace {

TEST(Sim, NandTruth) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po("o", net.add_nand2(a, b));
  // lanes: a = 0101..., b = 0011...
  const auto out = simulate64(net, {0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], ~(0xaaaaaaaaaaaaaaaaULL & 0xccccccccccccccccULL));
}

TEST(Sim, XorTruth) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po("o", net.add_xor2(a, b));
  const std::uint64_t wa = 0xaaaaaaaaaaaaaaaaULL;
  const std::uint64_t wb = 0xccccccccccccccccULL;
  EXPECT_EQ(simulate64(net, {wa, wb})[0], wa ^ wb);
}

TEST(Sim, WideAndOr) {
  BaseNetwork net;
  std::vector<NodeId> ins;
  std::vector<std::uint64_t> words;
  std::uint64_t expect_and = ~0ULL;
  std::uint64_t expect_or = 0;
  for (int i = 0; i < 7; ++i) {
    ins.push_back(net.add_pi(strprintf("i%d", i)));
    const std::uint64_t w = 0x123456789abcdef0ULL * (i + 1) + i;
    words.push_back(w);
    expect_and &= w;
    expect_or |= w;
  }
  net.add_po("and", net.add_and(ins));
  net.add_po("or", net.add_or(ins));
  const auto out = simulate64(net, words);
  EXPECT_EQ(out[0], expect_and);
  EXPECT_EQ(out[1], expect_or);
}

TEST(Sim, ConstantsSimulate) {
  BaseNetwork net;
  net.add_pi("a");
  net.add_po("zero", net.const0());
  net.add_po("one", net.const1());
  const auto out = simulate64(net, {0x5555555555555555ULL});
  EXPECT_EQ(out[0], 0ULL);
  EXPECT_EQ(out[1], ~0ULL);
}

TEST(Sim, RandomSignatureDeterministic) {
  BaseNetwork net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po("o", net.add_nand2(a, b));
  EXPECT_EQ(random_signature(net, 16, 99), random_signature(net, 16, 99));
  EXPECT_NE(random_signature(net, 16, 99), random_signature(net, 16, 100));
}

TEST(Sim, SignatureDistinguishesFunctions) {
  BaseNetwork n1;
  {
    const NodeId a = n1.add_pi("a");
    const NodeId b = n1.add_pi("b");
    n1.add_po("o", n1.add_and2(a, b));
  }
  BaseNetwork n2;
  {
    const NodeId a = n2.add_pi("a");
    const NodeId b = n2.add_pi("b");
    n2.add_po("o", n2.add_or2(a, b));
  }
  EXPECT_NE(random_signature(n1, 4, 1), random_signature(n2, 4, 1));
}

TEST(SimDeath, WrongPiCountAborts) {
  BaseNetwork net;
  net.add_pi("a");
  EXPECT_DEATH(simulate64(net, {}), "one word per primary input");
}

}  // namespace
}  // namespace cals
