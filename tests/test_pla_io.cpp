#include <gtest/gtest.h>

#include "sop/pla_io.hpp"

namespace cals {
namespace {

const char* kPla = R"(
# comment
.i 3
.o 2
.p 3
11- 10
--1 11
0-0 01
.e
)";

TEST(PlaIo, ParsesHeader) {
  const Pla pla = parse_pla_string(kPla).value_or_die();
  EXPECT_EQ(pla.num_inputs, 3u);
  EXPECT_EQ(pla.num_outputs, 2u);
  EXPECT_EQ(pla.products.size(), 3u);
}

TEST(PlaIo, OutputPlaneMembership) {
  const Pla pla = parse_pla_string(kPla).value_or_die();
  EXPECT_EQ(pla.outputs[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(pla.outputs[1], (std::vector<std::uint32_t>{1, 2}));
}

TEST(PlaIo, RoundTrip) {
  const Pla pla = parse_pla_string(kPla).value_or_die();
  const Pla again = parse_pla_string(write_pla_string(pla)).value_or_die();
  EXPECT_EQ(again.num_inputs, pla.num_inputs);
  EXPECT_EQ(again.num_outputs, pla.num_outputs);
  ASSERT_EQ(again.products.size(), pla.products.size());
  for (std::size_t i = 0; i < pla.products.size(); ++i)
    EXPECT_EQ(again.products[i], pla.products[i]);
  EXPECT_EQ(again.outputs, pla.outputs);
}

TEST(PlaIo, IgnoresInformationalDirectives) {
  const Pla pla =
      parse_pla_string(".i 2\n.o 1\n.type fr\n.ilb a b\n.ob f\n11 1\n.e\n").value_or_die();
  EXPECT_EQ(pla.products.size(), 1u);
}

TEST(PlaIo, RowBeforeHeaderIsParseError) {
  const Result<Pla> pla = parse_pla_string("11 1\n.i 2\n.o 1\n.e\n");
  ASSERT_FALSE(pla.ok());
  EXPECT_EQ(pla.status().code(), ErrorCode::kParseError);
  EXPECT_NE(pla.status().message().find("before"), std::string::npos);
}

TEST(PlaIo, WidthMismatchIsParseError) {
  const Result<Pla> pla = parse_pla_string(".i 3\n.o 1\n11 1\n.e\n");
  ASSERT_FALSE(pla.ok());
  EXPECT_EQ(pla.status().code(), ErrorCode::kParseError);
  EXPECT_NE(pla.status().message().find("width"), std::string::npos);
}

}  // namespace
}  // namespace cals
