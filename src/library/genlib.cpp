#include "library/genlib.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "util/check.hpp"
#include "util/faults.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"

namespace cals {
namespace {

Result<Library> parse_genlib_impl(std::istream& in) {
  std::string lib_name = "unnamed";
  TechParams tech;
  struct PendingCell {
    std::string name;
    double area = 0.0, intrinsic = 0.0, slope = 0.0, cap = 0.0;
    std::uint32_t line = 0;
    std::vector<std::pair<std::string, std::uint32_t>> exprs;  // expr, line
  };
  std::vector<PendingCell> pending;
  std::unordered_set<std::string> cell_names;

  std::string raw;
  std::uint32_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const auto c = static_cast<unsigned char>(raw[i]);
      if (c >= 0x80 || (c < 0x20 && c != '\t' && c != '\r'))
        return Status::parse_error("genlib: non-ASCII byte in input", lineno,
                                   static_cast<std::uint32_t>(i + 1));
    }
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
    const auto tokens = split_ws(raw);
    if (tokens.empty()) continue;
    if (tokens[0] == "LIBRARY") {
      if (tokens.size() < 2)
        return Status::parse_error("genlib: LIBRARY needs a name", lineno);
      lib_name = tokens[1];
    } else if (tokens[0] == "TECH") {
      if (tokens.size() != 7)
        return Status::parse_error("genlib: TECH needs 6 numbers", lineno);
      double layers = 0.0;
      if (!parse_double(tokens[1], tech.site_width_um) ||
          !parse_double(tokens[2], tech.row_height_um) ||
          !parse_double(tokens[3], tech.routing_pitch_um) ||
          !parse_double(tokens[4], layers) ||
          !parse_double(tokens[5], tech.wire_cap_ff_per_um) ||
          !parse_double(tokens[6], tech.wire_res_ohm_per_um))
        return Status::parse_error("genlib: TECH has a malformed number", lineno);
      tech.metal_layers = static_cast<int>(layers);
      if (tech.site_width_um <= 0.0 || tech.row_height_um <= 0.0 ||
          tech.routing_pitch_um <= 0.0 || layers != tech.metal_layers ||
          tech.metal_layers < 1 || tech.metal_layers > 16)
        return Status::error(
            ErrorCode::kInvalidNetwork,
            "genlib: TECH constants out of range (positive geometry, 1..16 layers)")
            .with_line(lineno);
    } else if (tokens[0] == "CELL") {
      if (tokens.size() != 7)
        return Status::parse_error("genlib: CELL needs name + 4 numbers + expr",
                                   lineno);
      PendingCell cell;
      cell.name = tokens[1];
      cell.line = lineno;
      if (!parse_double(tokens[2], cell.area) ||
          !parse_double(tokens[3], cell.intrinsic) ||
          !parse_double(tokens[4], cell.slope) || !parse_double(tokens[5], cell.cap))
        return Status::parse_error(
            strprintf("genlib: CELL %s has a malformed number", cell.name.c_str()),
            lineno);
      if (cell.area <= 0.0 || cell.intrinsic < 0.0 || cell.slope < 0.0 || cell.cap < 0.0)
        return Status::parse_error(
            strprintf("genlib: CELL %s needs positive area and non-negative "
                      "delay/cap constants",
                      cell.name.c_str()),
            lineno);
      if (!cell_names.insert(cell.name).second)
        return Status::parse_error(
            strprintf("genlib: duplicate cell '%s'", cell.name.c_str()), lineno);
      cell.exprs.emplace_back(tokens[6], lineno);
      pending.push_back(std::move(cell));
    } else if (tokens[0] == "ALT") {
      if (pending.empty())
        return Status::parse_error("genlib: ALT before any CELL", lineno);
      if (tokens.size() != 2)
        return Status::parse_error("genlib: ALT needs one expr", lineno);
      pending.back().exprs.emplace_back(tokens[1], lineno);
    } else {
      return Status::parse_error(
          strprintf("genlib: unknown directive '%s'", tokens[0].c_str()), lineno);
    }
  }
  if (in.bad()) return Status::parse_error("genlib: read failure", lineno);

  Library lib(lib_name, tech);
  bool has_inv = false;
  bool has_nand2 = false;
  for (const PendingCell& c : pending) {
    std::vector<Pattern> patterns;
    patterns.reserve(c.exprs.size());
    for (const auto& [expr, expr_line] : c.exprs) {
      auto pattern = Pattern::parse_checked(expr);
      if (!pattern.ok())
        return Status::parse_error(
            strprintf("genlib: cell %s: %s", c.name.c_str(),
                      pattern.status().message().c_str()),
            expr_line);
      // A bare variable covers no base gate: its match would have nothing to
      // place (and no center of mass).
      if (pattern->num_gates() == 0)
        return Status::parse_error(
            strprintf("genlib: cell %s: pattern has no INV or NAND gate", c.name.c_str()),
            expr_line);
      if (!patterns.empty() && pattern->num_vars() != patterns.front().num_vars())
        return Status::parse_error(
            strprintf("genlib: cell %s: ALT pattern has %u pins, CELL has %u",
                      c.name.c_str(), pattern->num_vars(),
                      patterns.front().num_vars()),
            expr_line);
      if (!patterns.empty() &&
          pattern->truth_table() != patterns.front().truth_table())
        return Status::parse_error(
            strprintf("genlib: cell %s: ALT pattern computes a different function",
                      c.name.c_str()),
            expr_line);
      // Only a one-gate pattern covers a lone base gate: INV(a), or NAND(a,b)
      // over two distinct pins.
      if (pattern->num_gates() == 1) {
        has_inv |= pattern->root_kind() == PatternKind::kInv;
        has_nand2 |= pattern->root_kind() == PatternKind::kNand2 && pattern->num_vars() == 2;
      }
      patterns.push_back(std::move(*pattern));
    }
    lib.add_cell(Cell(c.name, c.area, std::move(patterns), c.intrinsic, c.slope, c.cap));
  }
  // Every base gate is an INV or a NAND2: without both bare patterns the
  // mapper meets a vertex it cannot cover.
  if (!has_inv || !has_nand2)
    return Status::parse_error(
        strprintf("genlib: no cell has a bare %s pattern, so the library cannot "
                  "cover the base network",
                  has_inv ? "NAND(a,b)" : "INV(a)"));
  return lib;
}

}  // namespace

Result<Library> parse_genlib(std::istream& in) {
  // Dataset-served jobs bypass text parsing entirely; the serving CI asserts
  // this counter stays absent on the blob-backed hot path.
  CALS_OBS_COUNT("parse.genlib", 1);
  try {
    CALS_FAULT_POINT("parse.genlib");
    auto result = parse_genlib_impl(in);
    if (!result.ok()) {
      Status status = result.status();
      if (status.file().empty()) status.with_file("<genlib>");
      return status;
    }
    return result;
  } catch (const std::exception& e) {
    return Status::internal(strprintf("genlib: %s", e.what())).with_file("<genlib>");
  }
}

Result<Library> parse_genlib_string(const std::string& text) {
  std::istringstream in(text);
  return parse_genlib(in);
}

Result<Library> parse_genlib_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    return Status::parse_error("genlib: cannot open file").with_file(path);
  auto result = parse_genlib(in);
  if (!result.ok()) {
    Status status = result.status();
    status.with_file(path);
    return status;
  }
  return result;
}

void write_genlib(std::ostream& out, const Library& lib) {
  const TechParams& t = lib.tech();
  out << "LIBRARY " << lib.name() << '\n';
  out << strprintf("TECH %g %g %g %d %g %g\n", t.site_width_um, t.row_height_um,
                   t.routing_pitch_um, t.metal_layers, t.wire_cap_ff_per_um,
                   t.wire_res_ohm_per_um);
  for (const Cell& c : lib.cells()) {
    out << strprintf("CELL %s %g %g %g %g %s\n", c.name().c_str(), c.area(),
                     c.intrinsic_delay(), c.load_slope(), c.input_cap(),
                     c.patterns()[0].str().c_str());
    for (std::size_t p = 1; p < c.patterns().size(); ++p)
      out << "ALT " << c.patterns()[p].str() << '\n';
  }
}

std::string write_genlib_string(const Library& lib) {
  std::ostringstream out;
  write_genlib(out, lib);
  return out.str();
}

}  // namespace cals
