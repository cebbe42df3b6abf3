#pragma once
/// \file library.hpp
/// A standard-cell library: the cell set plus the physical constants the
/// placer/router need (site geometry, routing pitch, wire parasitics).

#include <string>
#include <vector>

#include "library/cell.hpp"

namespace cals {

/// Technology constants shared by placement, routing and timing.
struct TechParams {
  double site_width_um = 0.64;    ///< placement site width
  double row_height_um = 6.4;     ///< standard cell row height
  double routing_pitch_um = 0.56; ///< wire pitch on routing layers (0.18um M2/M3)
  int metal_layers = 3;           ///< total metal layers (the paper uses 3)
  double wire_cap_ff_per_um = 0.16;  ///< wire capacitance per um
  double wire_res_ohm_per_um = 0.08; ///< wire resistance per um (Elmore)
};

class Library {
 public:
  explicit Library(std::string name, TechParams tech = {})
      : name_(std::move(name)), tech_(tech) {}

  /// Aborts on a duplicate name or a pattern with no INV or NAND gate.
  CellId add_cell(Cell cell);

  const std::string& name() const { return name_; }
  const TechParams& tech() const { return tech_; }
  std::uint32_t num_cells() const { return static_cast<std::uint32_t>(cells_.size()); }
  const Cell& cell(CellId id) const { return cells_[id.v]; }
  const std::vector<Cell>& cells() const { return cells_; }

  /// Finds a cell by name; aborts if absent (use has_cell to probe).
  CellId cell_id(const std::string& name) const;
  bool has_cell(const std::string& name) const;

  /// The inverter the mapper uses for polarity repair and PO buffering;
  /// by convention the smallest 1-input cell with function !a.
  CellId inverter() const;

  /// Cell area quantum: smallest cell area (used for utilization sanity).
  double min_cell_area() const;

 private:
  std::string name_;
  TechParams tech_;
  std::vector<Cell> cells_;
};

}  // namespace cals
