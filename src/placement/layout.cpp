#include "placement/layout.hpp"

#include <cmath>

namespace pts::placement {

using netlist::CellId;
using netlist::CellKind;

Layout::Layout(const netlist::Netlist& netlist, std::size_t num_rows,
               double row_height)
    : netlist_(&netlist), row_height_(row_height) {
  const std::size_t movable = netlist.num_movable();
  PTS_CHECK_MSG(movable >= 1, "layout needs at least one movable cell");
  PTS_CHECK(row_height > 0.0);

  if (num_rows == 0) {
    num_rows_ = static_cast<std::size_t>(
        std::max(1.0, std::round(std::sqrt(static_cast<double>(movable)))));
  } else {
    num_rows_ = num_rows;
  }
  num_rows_ = std::min(num_rows_, movable);
  slots_per_row_ = (movable + num_rows_ - 1) / num_rows_;
  // Shrink row count if the ceiling division left trailing empty rows.
  num_rows_ = (movable + slots_per_row_ - 1) / slots_per_row_;
  num_slots_ = movable;

  nominal_width_ = static_cast<double>(netlist.total_movable_width()) /
                   static_cast<double>(num_rows_);

  // Pads: PIs spread along the left edge, POs along the right edge, each
  // group in id order from bottom to top.
  pad_positions_.assign(netlist.num_cells(), Point{});
  std::size_t num_pi = 0, num_po = 0;
  for (CellId id : netlist.pad_cells()) {
    (netlist.cell(id).kind == CellKind::PrimaryInput ? num_pi : num_po) += 1;
  }
  const double height = core_height();
  auto spread = [&](std::size_t index, std::size_t count) {
    return height * (static_cast<double>(index) + 0.5) /
           static_cast<double>(count == 0 ? 1 : count);
  };
  std::size_t pi_seen = 0, po_seen = 0;
  const double pad_margin = 2.0;
  for (CellId id : netlist.pad_cells()) {
    if (netlist.cell(id).kind == CellKind::PrimaryInput) {
      pad_positions_[id] = Point{-pad_margin, spread(pi_seen++, num_pi)};
    } else {
      pad_positions_[id] =
          Point{nominal_width_ + pad_margin, spread(po_seen++, num_po)};
    }
    PTS_CHECK_MSG(exact_coordinate(pad_positions_[id].x) &&
                      exact_coordinate(pad_positions_[id].y),
                  "pad position must be finite and not -0.0");
  }
}

std::size_t Layout::slots_in_row(std::size_t row) const {
  PTS_DCHECK(row < num_rows_);
  if (row + 1 < num_rows_) return slots_per_row_;
  return num_slots_ - (num_rows_ - 1) * slots_per_row_;
}

Point Layout::pad_position(CellId cell) const {
  PTS_CHECK(cell < pad_positions_.size());
  PTS_CHECK_MSG(!netlist_->cell(cell).movable(), "pad_position of a gate");
  return pad_positions_[cell];
}

}  // namespace pts::placement
