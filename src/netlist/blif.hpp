#pragma once
/// \file blif.hpp
/// Reader/writer for combinational BLIF, the interchange format of SIS.
///
/// The reader accepts `.model`, `.inputs`, `.outputs` and single-output
/// `.names` tables (on-set covers over {0,1,-}), in any declaration order,
/// and builds a strashed NAND2/INV base network. The writer emits the base
/// network as two-row NAND covers and one-row INV covers, so round-tripping
/// through SIS-compatible tooling is possible.

#include <iosfwd>
#include <string>

#include "netlist/base_network.hpp"
#include "util/status.hpp"

namespace cals {

/// A latch: the combinational core treats `output` (Q) as a pseudo primary
/// input and `input` (D) as a pseudo primary output — the standard way to
/// map sequential designs with a combinational technology mapper.
struct BlifLatch {
  std::string input;   ///< D net
  std::string output;  ///< Q net
  char initial = '3';  ///< 0, 1, 2 (don't care), 3 (unknown)
};

struct BlifModel {
  std::string name;
  BaseNetwork network;
  /// Latches, in declaration order. network's PIs include one pseudo-PI per
  /// latch Q (named after the Q net) appended after the true PIs, and its
  /// POs one pseudo-PO per latch D (named after the D net); `num_real_pis` /
  /// `num_real_pos` give the boundary.
  std::vector<BlifLatch> latches;
  std::size_t num_real_pis = 0;
  std::size_t num_real_pos = 0;
};

/// Parses BLIF text. Malformed input — unknown directives, arity mismatches,
/// dangling or cyclic `.names` dependencies, duplicate definitions, non-ASCII
/// bytes, truncated files — yields a `Status` with 1-based line (and, where
/// known, column) provenance instead of aborting. The file variant annotates
/// the status with the path; the stream/string variants with "<blif>".
Result<BlifModel> parse_blif(std::istream& in);
Result<BlifModel> parse_blif_string(const std::string& text);
Result<BlifModel> parse_blif_file(const std::string& path);

/// Writes the network as structural BLIF (NAND2/INV tables only).
void write_blif(std::ostream& out, const BaseNetwork& net, const std::string& model_name);
std::string write_blif_string(const BaseNetwork& net, const std::string& model_name);

}  // namespace cals
