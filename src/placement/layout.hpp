// Standard-cell layout geometry.
//
// The core area is a set of horizontal rows. Movable cells occupy slots
// (sequence positions) within rows; a cell's x position is the prefix sum of
// the widths of the cells before it in its row, so variable-width cells are
// handled exactly. Pads are fixed: primary inputs on the left edge, primary
// outputs on the right edge, evenly spread vertically.
#pragma once

#include <cmath>
#include <cstddef>

#include "netlist/netlist.hpp"

namespace pts::placement {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// True for a coordinate the exact-geometry argument admits: finite and not
/// -0.0. Min and max over such values pick one double whatever the order,
/// which HpwlState's O(1) probe path relies on to stay bit-identical to a
/// fold over the pins (DESIGN.md §9).
inline bool exact_coordinate(double v) {
  return std::isfinite(v) && !(v == 0.0 && std::signbit(v));
}

using SlotId = std::uint32_t;
inline constexpr SlotId kNoSlot = static_cast<SlotId>(-1);

class Layout {
 public:
  /// Derives a layout for `netlist`. `num_rows == 0` selects roughly square
  /// aspect (rows ≈ sqrt(movable cells)).
  explicit Layout(const netlist::Netlist& netlist, std::size_t num_rows = 0,
                  double row_height = 1.0);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_slots() const { return num_slots_; }
  /// Maximum slots in any row; rows 0..num_rows-2 are full, the last row
  /// may be partial.
  std::size_t slots_per_row() const { return slots_per_row_; }

  std::size_t row_of_slot(SlotId slot) const {
    PTS_DCHECK(slot < num_slots_);
    return slot / slots_per_row_;
  }
  std::size_t column_of_slot(SlotId slot) const {
    PTS_DCHECK(slot < num_slots_);
    return slot % slots_per_row_;
  }
  SlotId slot_at(std::size_t row, std::size_t column) const {
    PTS_DCHECK(row < num_rows_);
    return static_cast<SlotId>(row * slots_per_row_ + column);
  }
  std::size_t slots_in_row(std::size_t row) const;

  double row_height() const { return row_height_; }
  /// y coordinate of the center line of `row`.
  double row_y(std::size_t row) const {
    PTS_DCHECK(row < num_rows_);
    return (static_cast<double>(row) + 0.5) * row_height_;
  }

  /// Average row width implied by total movable width; pads sit just
  /// outside [0, nominal_width].
  double nominal_width() const { return nominal_width_; }
  double core_height() const {
    return static_cast<double>(num_rows_) * row_height_;
  }

  /// Fixed position of a pad cell. PTS_CHECK-fails for movable cells.
  Point pad_position(netlist::CellId cell) const;

 private:
  const netlist::Netlist* netlist_;
  std::size_t num_rows_ = 1;
  std::size_t slots_per_row_ = 1;
  std::size_t num_slots_ = 0;
  double row_height_ = 1.0;
  double nominal_width_ = 0.0;
  std::vector<Point> pad_positions_;  // indexed by cell id (gates unset)
};

}  // namespace pts::placement
