#include <gtest/gtest.h>

#include "library/corelib.hpp"
#include "library/genlib.hpp"

namespace cals {
namespace {

TEST(Corelib, HasExpectedCells) {
  const Library lib = lib::make_corelib();
  for (const char* name : {"INV", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "AND2",
                           "OR2", "AOI21", "AOI22", "OAI21", "OAI22", "XOR2", "XNOR2"})
    EXPECT_TRUE(lib.has_cell(name)) << name;
}

TEST(Corelib, Figure1Areas) {
  // The paper's Figure 1 example depends on these exact areas:
  // NAND3 + AOI21 + 2*INV = 53.248 um^2; 2*OR2 + 2*NAND2 + INV = 65.536 um^2.
  const Library lib = lib::make_corelib();
  auto area = [&](const char* name) { return lib.cell(lib.cell_id(name)).area(); };
  EXPECT_NEAR(area("NAND3") + area("AOI21") + 2 * area("INV"), 53.248, 1e-9);
  EXPECT_NEAR(2 * area("OR2") + 2 * area("NAND2") + area("INV"), 65.536, 1e-9);
}

TEST(Corelib, InverterLookup) {
  const Library lib = lib::make_corelib();
  const CellId inv = lib.inverter();
  EXPECT_EQ(lib.cell(inv).name(), "INV");
  EXPECT_EQ(lib.cell(inv).truth_table(), 0b01ULL);
}

TEST(Corelib, TruthTablesMatchFunctions) {
  const Library lib = lib::make_corelib();
  auto tt = [&](const char* name) { return lib.cell(lib.cell_id(name)).truth_table(); };
  EXPECT_EQ(tt("NAND2"), 0b0111ULL);
  EXPECT_EQ(tt("AND2"), 0b1000ULL);
  EXPECT_EQ(tt("OR2"), 0b1110ULL);
  EXPECT_EQ(tt("NOR2"), 0b0001ULL);
  EXPECT_EQ(tt("XOR2"), 0b0110ULL);
  EXPECT_EQ(tt("XNOR2"), 0b1001ULL);
}

TEST(Corelib, MultiPatternCellsAgree) {
  // Cell constructor enforces identical truth tables across patterns — the
  // library must construct without aborting and expose > 1 pattern on NAND4.
  const Library lib = lib::make_corelib();
  EXPECT_GE(lib.cell(lib.cell_id("NAND4")).patterns().size(), 2u);
}

TEST(Corelib, DelayModelMonotone) {
  const Library lib = lib::make_corelib();
  const Cell& inv = lib.cell(lib.inverter());
  EXPECT_LT(inv.delay(1.0), inv.delay(10.0));
  EXPECT_GT(inv.delay(0.0), 0.0);
}

TEST(Corelib, MinCellArea) {
  const Library lib = lib::make_corelib();
  EXPECT_NEAR(lib.min_cell_area(), 2 * 4.096, 1e-9);  // INV
}

TEST(Library, CellIdLookup) {
  const Library lib = lib::make_corelib();
  const CellId id = lib.cell_id("AOI21");
  EXPECT_EQ(lib.cell(id).name(), "AOI21");
  EXPECT_FALSE(lib.has_cell("NAND17"));
}

TEST(LibraryDeath, DuplicateCellAborts) {
  Library lib("x");
  lib.add_cell(Cell("INV", 1.0, {Pattern::parse("INV(a)")}, 0.1, 0.1, 1.0));
  EXPECT_DEATH(lib.add_cell(Cell("INV", 2.0, {Pattern::parse("INV(a)")}, 0.1, 0.1, 1.0)),
               "duplicate");
}

TEST(LibraryDeath, PatternWithoutGateAborts) {
  // A library built in code stops here, not later in the match database.
  Library lib("x");
  EXPECT_DEATH(lib.add_cell(Cell("WIRE", 1.0, {Pattern::parse("a")}, 0.1, 0.1, 1.0)),
               "cell WIRE: pattern has no INV or NAND gate");
  EXPECT_DEATH(lib.add_cell(Cell("BUF", 2.0, {Pattern::parse("INV(INV(a))"), Pattern::parse("a")},
                                 0.1, 0.1, 1.0)),
               "cell BUF: pattern has no INV or NAND gate");
}

TEST(LibraryDeath, UnknownCellAborts) {
  const Library lib = lib::make_corelib();
  EXPECT_DEATH(lib.cell_id("BOGUS"), "unknown");
}

TEST(Genlib, RoundTrip) {
  const Library lib = lib::make_corelib();
  const std::string text = write_genlib_string(lib);
  const Library again = parse_genlib_string(text).value_or_die();
  ASSERT_EQ(again.num_cells(), lib.num_cells());
  for (std::uint32_t i = 0; i < lib.num_cells(); ++i) {
    const Cell& a = lib.cell(CellId{i});
    const Cell& b = again.cell(CellId{i});
    EXPECT_EQ(a.name(), b.name());
    EXPECT_DOUBLE_EQ(a.area(), b.area());
    EXPECT_EQ(a.truth_table(), b.truth_table());
    EXPECT_EQ(a.patterns().size(), b.patterns().size());
    EXPECT_DOUBLE_EQ(a.input_cap(), b.input_cap());
  }
  EXPECT_DOUBLE_EQ(again.tech().routing_pitch_um, lib.tech().routing_pitch_um);
}

TEST(Genlib, ParsesCustomLibrary) {
  const char* text = R"(
# toy library
LIBRARY toy
TECH 0.5 5.0 1.0 4 0.2 0.1
CELL INVX 4.0 0.05 0.01 1.5 INV(a)
CELL ND2 6.0 0.06 0.01 2.0 NAND(a,b)
ALT NAND(b,a)
)";
  const Library lib = parse_genlib_string(text).value_or_die();
  EXPECT_EQ(lib.name(), "toy");
  EXPECT_EQ(lib.num_cells(), 2u);
  EXPECT_EQ(lib.tech().metal_layers, 4);
  EXPECT_EQ(lib.cell(lib.cell_id("ND2")).patterns().size(), 2u);
}

TEST(Genlib, RejectsPatternsWithoutAGate) {
  // A bare variable covers no base gate; as a CELL or as an ALT of a buffer
  // it is a parse error naming the cell and the line.
  const std::string head =
      "LIBRARY w\nTECH 0.5 5.0 1.0 4 0.2 0.1\n"
      "CELL INVX 4.0 0.05 0.01 1.5 INV(a)\nCELL ND2 6.0 0.06 0.01 2.0 NAND(a,b)\n";
  for (const std::string& tail : {std::string("CELL WIRE 1.0 0.01 0.01 1.0 a\n"),
                                 std::string("CELL BUF 2.0 0.01 0.01 1.0 INV(INV(a))\nALT a\n")}) {
    const Result<Library> lib = parse_genlib_string(head + tail);
    ASSERT_FALSE(lib.ok()) << tail;
    EXPECT_EQ(lib.status().code(), ErrorCode::kParseError);
    EXPECT_NE(lib.status().message().find("no INV or NAND gate"), std::string::npos);
    EXPECT_NE(lib.status().message().find(tail.substr(5, 3)), std::string::npos);
    EXPECT_GT(lib.status().line(), 4u);
  }
}

TEST(Genlib, AltBeforeCellIsParseError) {
  const Result<Library> lib = parse_genlib_string("LIBRARY x\nALT INV(a)\n");
  ASSERT_FALSE(lib.ok());
  EXPECT_EQ(lib.status().code(), ErrorCode::kParseError);
  EXPECT_NE(lib.status().message().find("ALT before"), std::string::npos);
}

}  // namespace
}  // namespace cals
