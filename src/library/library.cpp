#include "library/library.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cals {

CellId Library::add_cell(Cell cell) {
  CALS_CHECK_MSG(!has_cell(cell.name()), "duplicate cell name");
  // A bare-variable pattern covers no base gate: its match would have
  // nothing to place. The parsers reject it as input; here it is a bug.
  CALS_CHECK_MSG(std::all_of(cell.patterns().begin(), cell.patterns().end(),
                             [](const Pattern& p) { return p.num_gates() > 0; }),
                 ("cell " + cell.name() + ": pattern has no INV or NAND gate").c_str());
  cells_.push_back(std::move(cell));
  return CellId{static_cast<std::uint32_t>(cells_.size() - 1)};
}

CellId Library::cell_id(const std::string& name) const {
  for (std::uint32_t i = 0; i < cells_.size(); ++i)
    if (cells_[i].name() == name) return CellId{i};
  CALS_CHECK_MSG(false, "unknown cell name");
  return CellId{0};
}

bool Library::has_cell(const std::string& name) const {
  return std::any_of(cells_.begin(), cells_.end(),
                     [&](const Cell& c) { return c.name() == name; });
}

CellId Library::inverter() const {
  CellId best{0};
  bool found = false;
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    if (c.num_inputs() == 1 && c.truth_table() == 0b01ULL) {  // !a
      if (!found || c.area() < cells_[best.v].area()) {
        best = CellId{i};
        found = true;
      }
    }
  }
  CALS_CHECK_MSG(found, "library has no inverter");
  return best;
}

double Library::min_cell_area() const {
  CALS_CHECK(!cells_.empty());
  double best = cells_[0].area();
  for (const Cell& c : cells_) best = std::min(best, c.area());
  return best;
}

}  // namespace cals
