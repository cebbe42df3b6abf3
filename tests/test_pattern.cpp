#include <gtest/gtest.h>

#include "library/pattern.hpp"

namespace cals {
namespace {

TEST(Pattern, ParseVar) {
  const Pattern p = Pattern::parse("a");
  EXPECT_EQ(p.num_vars(), 1u);
  EXPECT_EQ(p.num_gates(), 0u);
  EXPECT_EQ(p.truth_table(), 0b10ULL);  // identity
}

TEST(Pattern, ParseInv) {
  const Pattern p = Pattern::parse("INV(a)");
  EXPECT_EQ(p.num_vars(), 1u);
  EXPECT_EQ(p.num_gates(), 1u);
  EXPECT_EQ(p.truth_table(), 0b01ULL);
}

TEST(Pattern, ParseNand) {
  const Pattern p = Pattern::parse("NAND(a,b)");
  EXPECT_EQ(p.num_vars(), 2u);
  EXPECT_EQ(p.truth_table(), 0b0111ULL);
}

TEST(Pattern, Nand3TruthTable) {
  const Pattern p = Pattern::parse("NAND(a,INV(NAND(b,c)))");
  EXPECT_EQ(p.num_vars(), 3u);
  // !(a & b & c): false only at minterm 7.
  EXPECT_EQ(p.truth_table(), 0x7fULL);
  EXPECT_EQ(p.num_gates(), 3u);
}

TEST(Pattern, Aoi21TruthTable) {
  const Pattern p = Pattern::parse("INV(NAND(NAND(a,b),INV(c)))");
  // !(a*b + c)
  std::uint64_t expect = 0;
  for (std::uint32_t m = 0; m < 8; ++m) {
    const bool a = m & 1, b = m & 2, c = m & 4;
    if (!((a && b) || c)) expect |= 1ULL << m;
  }
  EXPECT_EQ(p.truth_table(), expect);
}

TEST(Pattern, XorRepeatedVariables) {
  const Pattern p = Pattern::parse("NAND(NAND(a,INV(b)),NAND(INV(a),b))");
  EXPECT_EQ(p.num_vars(), 2u);
  EXPECT_EQ(p.truth_table(), 0b0110ULL);
}

TEST(Pattern, VariableOrderByFirstAppearance) {
  const Pattern p = Pattern::parse("NAND(x,INV(y))");
  // x -> pin 0, y -> pin 1: function !(x & !y); minterm 1 (x=1,y=0) -> 0.
  EXPECT_EQ(p.truth_table(), 0b1101ULL);
}

TEST(Pattern, StrRoundTrip) {
  const char* text = "NAND(a,INV(NAND(b,c)))";
  const Pattern p = Pattern::parse(text);
  const Pattern q = Pattern::parse(p.str());
  EXPECT_EQ(p.truth_table(), q.truth_table());
  EXPECT_EQ(p.num_gates(), q.num_gates());
}

TEST(Pattern, WhitespaceTolerated) {
  const Pattern p = Pattern::parse("NAND( a , INV( b ) )");
  EXPECT_EQ(p.num_vars(), 2u);
}

TEST(PatternDeath, TrailingGarbageAborts) {
  EXPECT_DEATH(Pattern::parse("INV(a))"), "trailing");
}

TEST(PatternDeath, TooManyVariablesAborts) {
  EXPECT_DEATH(Pattern::parse("NAND(a,NAND(b,NAND(c,NAND(d,NAND(e,NAND(f,g))))))"),
               "variables");
}

TEST(Pattern, FromPartsRejectsABareVariable) {
  // The blob loader's entry point fails closed on a pattern that covers no
  // gate, as parse_genlib does.
  const Result<Pattern> bare = Pattern::from_parts({{PatternKind::kVar, -1, -1, 0}}, 0, 1);
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), ErrorCode::kParseError);
  const Result<Pattern> inv = Pattern::from_parts(
      {{PatternKind::kVar, -1, -1, 0}, {PatternKind::kInv, 0, -1, -1}}, 1, 1);
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->str(), "INV(a)");
}

}  // namespace
}  // namespace cals
