#pragma once
/// \file pla_io.hpp
/// Espresso-format PLA reader/writer (.i/.o/.p, cover rows, .e).

#include <iosfwd>
#include <string>

#include "sop/sop.hpp"
#include "util/status.hpp"

namespace cals {

/// Parses an espresso PLA. Output-plane characters: '1' adds the product to
/// that output, '0'/'-'/'~' do not (we model on-set semantics, type fr
/// covers are treated as on-set which matches how SIS reads these
/// benchmarks for synthesis).
///
/// Malformed input — bad or oversized .i/.o declarations, cover rows before
/// the declarations, plane-width mismatches, bad literal characters,
/// non-ASCII bytes — yields a `Status` with line/column provenance instead
/// of aborting. The file variant annotates the status with the path.
Result<Pla> parse_pla(std::istream& in);
Result<Pla> parse_pla_string(const std::string& text);
Result<Pla> parse_pla_file(const std::string& path);

void write_pla(std::ostream& out, const Pla& pla);
std::string write_pla_string(const Pla& pla);

}  // namespace cals
