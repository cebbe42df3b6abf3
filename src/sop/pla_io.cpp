#include "sop/pla_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/check.hpp"
#include "util/faults.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"

namespace cals {
namespace {

/// Declared plane widths above this are treated as malformed rather than
/// attempted: a hostile ".i 4000000000" must not become an allocation.
constexpr std::uint32_t kMaxPlaneWidth = 1u << 20;

Result<Pla> parse_pla_impl(std::istream& in) {
  Pla pla;
  bool have_i = false;
  bool have_o = false;
  std::string raw;
  std::uint32_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const auto c = static_cast<unsigned char>(raw[i]);
      if (c >= 0x80 || (c < 0x20 && c != '\t' && c != '\r'))
        return Status::parse_error("pla: non-ASCII byte in input", lineno,
                                   static_cast<std::uint32_t>(i + 1));
    }
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
    const auto tokens = split_ws(raw);
    if (tokens.empty()) continue;
    if (tokens[0] == ".i" || tokens[0] == ".o") {
      const bool is_i = tokens[0] == ".i";
      std::uint32_t width = 0;
      if (tokens.size() != 2 || !parse_u32(tokens[1], width))
        return Status::parse_error(
            strprintf("pla: %s needs one non-negative integer", tokens[0].c_str()),
            lineno);
      if (width > kMaxPlaneWidth)
        return Status::parse_error(
            strprintf("pla: %s %u exceeds the supported plane width (%u)",
                      tokens[0].c_str(), width, kMaxPlaneWidth),
            lineno);
      if (is_i ? have_i : have_o)
        return Status::parse_error(
            strprintf("pla: duplicate %s directive", tokens[0].c_str()), lineno);
      if (is_i) {
        pla.num_inputs = width;
        have_i = true;
      } else {
        pla.num_outputs = width;
        pla.outputs.assign(pla.num_outputs, {});
        have_o = true;
      }
    } else if (tokens[0] == ".p" || tokens[0] == ".ilb" || tokens[0] == ".ob" ||
               tokens[0] == ".type") {
      continue;  // informational
    } else if (tokens[0] == ".e" || tokens[0] == ".end") {
      break;
    } else if (tokens[0][0] == '.') {
      return Status::parse_error(
          strprintf("pla: unsupported directive '%s'", tokens[0].c_str()), lineno);
    } else {
      if (!have_i || !have_o)
        return Status::parse_error("pla: cover row before .i/.o", lineno);
      if (tokens.size() != 2)
        return Status::parse_error("pla: cover row needs input and output plane",
                                   lineno);
      Cube cube;
      std::size_t bad_pos = 0;
      if (!Cube::try_parse(tokens[0], cube, bad_pos))
        return Status::parse_error(
            strprintf("pla: bad literal character '%c' in input plane",
                      tokens[0][bad_pos]),
            lineno, static_cast<std::uint32_t>(bad_pos + 1));
      if (cube.size() != pla.num_inputs)
        return Status::parse_error(
            strprintf("pla: input plane width mismatch (%u literals for .i %u)",
                      cube.size(), pla.num_inputs),
            lineno);
      const std::string& out_plane = tokens[1];
      if (out_plane.size() != pla.num_outputs)
        return Status::parse_error(
            strprintf("pla: output plane width mismatch (%zu values for .o %u)",
                      out_plane.size(), pla.num_outputs),
            lineno);
      const auto row = static_cast<std::uint32_t>(pla.products.size());
      pla.products.push_back(cube);
      for (std::uint32_t o = 0; o < pla.num_outputs; ++o)
        if (out_plane[o] == '1' || out_plane[o] == '4') pla.outputs[o].push_back(row);
    }
  }
  if (in.bad()) return Status::parse_error("pla: read failure", lineno);
  if (!have_i || !have_o)
    return Status::parse_error("pla: truncated input (missing .i/.o declarations)",
                               lineno);
  for (auto& rows : pla.outputs) std::sort(rows.begin(), rows.end());
  pla.validate();
  return pla;
}

}  // namespace

Result<Pla> parse_pla(std::istream& in) {
  // Dataset-served jobs bypass text parsing entirely; the serving CI asserts
  // this counter stays absent on the blob-backed hot path.
  CALS_OBS_COUNT("parse.pla", 1);
  try {
    CALS_FAULT_POINT("parse.pla");
    auto result = parse_pla_impl(in);
    if (!result.ok()) {
      Status status = result.status();
      if (status.file().empty()) status.with_file("<pla>");
      return status;
    }
    return result;
  } catch (const std::exception& e) {
    return Status::internal(strprintf("pla: %s", e.what())).with_file("<pla>");
  }
}

Result<Pla> parse_pla_string(const std::string& text) {
  std::istringstream in(text);
  return parse_pla(in);
}

Result<Pla> parse_pla_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::parse_error("pla: cannot open file").with_file(path);
  auto result = parse_pla(in);
  if (!result.ok()) {
    Status status = result.status();
    status.with_file(path);
    return status;
  }
  return result;
}

void write_pla(std::ostream& out, const Pla& pla) {
  out << ".i " << pla.num_inputs << "\n.o " << pla.num_outputs << "\n.p "
      << pla.products.size() << '\n';
  for (std::uint32_t p = 0; p < pla.products.size(); ++p) {
    std::string out_plane(pla.num_outputs, '0');
    for (std::uint32_t o = 0; o < pla.num_outputs; ++o)
      if (std::binary_search(pla.outputs[o].begin(), pla.outputs[o].end(), p))
        out_plane[o] = '1';
    out << pla.products[p].str() << ' ' << out_plane << '\n';
  }
  out << ".e\n";
}

std::string write_pla_string(const Pla& pla) {
  std::ostringstream out;
  write_pla(out, pla);
  return out.str();
}

}  // namespace cals
