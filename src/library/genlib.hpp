#pragma once
/// \file genlib.hpp
/// Text format for libraries (genlib-inspired), so users can bring their own
/// cells. Format, one record per CELL line, optional ALT lines add extra
/// match patterns:
///
///   LIBRARY <name>
///   TECH <site_w> <row_h> <pitch> <layers> <wirecap_ff_um> <wireres_ohm_um>
///   CELL <name> <area_um2> <intrinsic_ns> <slope_ns_ff> <input_cap_ff> <expr>
///   ALT <expr>
///
/// where <expr> uses the pattern grammar of pattern.hpp, e.g.
/// NAND(a,INV(NAND(b,c))). Lines starting with '#' are comments.

#include <iosfwd>
#include <string>

#include "library/library.hpp"
#include "util/status.hpp"

namespace cals {

/// Parses genlib text. Malformed input — wrong directive arity, bad numbers,
/// duplicate cells, ALT before any CELL, unparsable pattern expressions,
/// nonsensical TECH constants — yields a `Status` with line provenance
/// instead of aborting. So does a library that cannot cover every base gate
/// (no bare INV(a) or no bare NAND(a,b) pattern), without a line. The file
/// variant annotates the status with the path.
Result<Library> parse_genlib(std::istream& in);
Result<Library> parse_genlib_string(const std::string& text);
Result<Library> parse_genlib_file(const std::string& path);

void write_genlib(std::ostream& out, const Library& lib);
std::string write_genlib_string(const Library& lib);

}  // namespace cals
