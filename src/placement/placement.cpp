#include "placement/placement.hpp"

#include <algorithm>
#include <cmath>

namespace pts::placement {

using netlist::CellId;

Placement::Placement(const netlist::Netlist& netlist, const Layout& layout)
    : netlist_(&netlist), topology_(&netlist.topology()), layout_(&layout) {
  PTS_CHECK_MSG(layout.num_slots() == netlist.num_movable(),
                "layout must be derived from the same netlist");
  slot_of_.assign(netlist.num_cells(), kNoSlot);
  cell_at_.assign(layout.num_slots(), netlist::kNoCell);
  pos_x_.assign(netlist.num_cells(), 0.0);
  pos_y_.assign(netlist.num_cells(), 0.0);
  row_extent_.assign(layout.num_rows(), 0.0);

  // Every x is a row origin (0.0) plus integer widths and halves, every y a
  // row's center line: the exact-geometry argument (DESIGN.md §9) needs the
  // row origins finite and not -0.0.
  for (std::size_t row = 0; row < layout.num_rows(); ++row) {
    PTS_CHECK_MSG(exact_coordinate(layout.row_y(row)),
                  "row origin must be finite and not -0.0");
  }

  // Pad positions never change; fix them once so position() is a plain
  // two-array load for every cell kind.
  for (const CellId pad : netlist.pad_cells()) {
    const Point p = layout.pad_position(pad);
    pos_x_[pad] = p.x;
    pos_y_[pad] = p.y;
  }

  const auto& movable = netlist.movable_cells();
  for (std::size_t k = 0; k < movable.size(); ++k) {
    slot_of_[movable[k]] = static_cast<SlotId>(k);
    cell_at_[k] = movable[k];
  }
  rebuild_all_rows();
}

Placement Placement::random(const netlist::Netlist& netlist, const Layout& layout,
                            Rng& rng) {
  Placement p(netlist, layout);
  std::vector<CellId> order = netlist.movable_cells();
  rng.shuffle(order);
  p.assign_slots(order);
  return p;
}

void Placement::assign_slots(const std::vector<CellId>& cell_at_slot) {
  PTS_CHECK(cell_at_slot.size() == cell_at_.size());
  std::fill(slot_of_.begin(), slot_of_.end(), kNoSlot);
  for (SlotId s = 0; s < cell_at_slot.size(); ++s) {
    const CellId c = cell_at_slot[s];
    PTS_CHECK(c < slot_of_.size());
    PTS_CHECK_MSG(netlist_->cell(c).movable(), "pads cannot occupy slots");
    PTS_CHECK_MSG(slot_of_[c] == kNoSlot, "cell placed twice");
    slot_of_[c] = s;
  }
  cell_at_ = cell_at_slot;
  rebuild_all_rows();
}

void Placement::rescan_max_extent() {
  // First-max semantics, same value std::max_element would report.
  max_extent_ = row_extent_[0];
  max_extent_row_ = 0;
  for (std::size_t row = 1; row < row_extent_.size(); ++row) {
    if (row_extent_[row] > max_extent_) {
      max_extent_ = row_extent_[row];
      max_extent_row_ = row;
    }
  }
}

void Placement::rebuild_row(std::size_t row) {
  const std::size_t count = layout_->slots_in_row(row);
  const double y = layout_->row_y(row);
  double x = 0.0;
  for (std::size_t col = 0; col < count; ++col) {
    const CellId cell = cell_at_[layout_->slot_at(row, col)];
    const double w = topology_->cell_width(cell);
    pos_x_[cell] = x + 0.5 * w;
    pos_y_[cell] = y;
    x += w;
  }
  row_extent_[row] = x;
  // Keep the cached max exact. Invariant: row_extent_[max_extent_row_] ==
  // max_extent_ == max over all rows. A row growing past the max takes the
  // crown; the crown row shrinking forces one O(rows) rescan (rare — only
  // unequal-width swaps touching the widest row); a tie with the max needs
  // nothing (the crown row still holds it).
  if (x > max_extent_) {
    max_extent_ = x;
    max_extent_row_ = row;
  } else if (row == max_extent_row_ && x < max_extent_) {
    rescan_max_extent();
  }
}

void Placement::rebuild_all_rows() {
  for (std::size_t row = 0; row < layout_->num_rows(); ++row) rebuild_row(row);
  rescan_max_extent();
}

void Placement::swap_cells(CellId a, CellId b, std::vector<CellId>* moved_cells) {
  PTS_DCHECK(a != b);
  PTS_DCHECK(topology_->cell_movable(a) && topology_->cell_movable(b));
  const SlotId sa = slot_of_[a];
  const SlotId sb = slot_of_[b];
  const std::size_t ra = layout_->row_of_slot(sa);
  const std::size_t rb = layout_->row_of_slot(sb);

  slot_of_[a] = sb;
  slot_of_[b] = sa;
  cell_at_[sa] = b;
  cell_at_[sb] = a;

  // Exact int-to-double widths from the SoA array; equality is preserved.
  const double wa = topology_->cell_width(a);
  const double wb = topology_->cell_width(b);
  if (wa == wb) {
    // Equal widths: only a and b move; their centers trade places (the
    // cells trade slots, so they trade row y coordinates too).
    std::swap(pos_x_[a], pos_x_[b]);
    std::swap(pos_y_[a], pos_y_[b]);
    if (moved_cells != nullptr) {
      moved_cells->push_back(a);
      moved_cells->push_back(b);
    }
    return;
  }

  // Unequal widths: every cell at or after the smaller affected column in
  // each touched row may shift. Collect moved cells before rebuilding.
  if (moved_cells != nullptr) {
    const std::size_t col_a = layout_->column_of_slot(sa);
    const std::size_t col_b = layout_->column_of_slot(sb);
    auto collect_from = [&](std::size_t row, std::size_t first_col) {
      const std::size_t count = layout_->slots_in_row(row);
      for (std::size_t col = first_col; col < count; ++col) {
        moved_cells->push_back(cell_at_[layout_->slot_at(row, col)]);
      }
    };
    if (ra == rb) {
      collect_from(ra, std::min(col_a, col_b));
    } else {
      collect_from(ra, col_a);
      collect_from(rb, col_b);
    }
  }
  rebuild_row(ra);
  if (rb != ra) rebuild_row(rb);
}

void Placement::check_consistent() const {
  // Bijection between movable cells and slots.
  std::vector<char> seen(cell_at_.size(), 0);
  for (SlotId s = 0; s < cell_at_.size(); ++s) {
    const CellId c = cell_at_[s];
    PTS_CHECK(c != netlist::kNoCell);
    PTS_CHECK(netlist_->cell(c).movable());
    PTS_CHECK(slot_of_[c] == s);
    PTS_CHECK(!seen[s]);
    seen[s] = 1;
  }
  for (CellId c = 0; c < slot_of_.size(); ++c) {
    if (netlist_->cell(c).movable()) {
      PTS_CHECK(slot_of_[c] != kNoSlot);
    } else {
      PTS_CHECK(slot_of_[c] == kNoSlot);
    }
  }
  // Geometry matches a from-scratch rebuild.
  Placement fresh(*netlist_, *layout_);
  fresh.assign_slots(cell_at_);
  for (CellId c : netlist_->movable_cells()) {
    PTS_CHECK(std::abs(fresh.pos_x_[c] - pos_x_[c]) < 1e-9);
    PTS_CHECK(fresh.pos_y_[c] == pos_y_[c]);
  }
  for (std::size_t row = 0; row < layout_->num_rows(); ++row) {
    PTS_CHECK(std::abs(fresh.row_extent_[row] - row_extent_[row]) < 1e-9);
  }
  // The cached max the cost model reads must be the max a fresh scan finds.
  PTS_CHECK(max_extent_ ==
            *std::max_element(row_extent_.begin(), row_extent_.end()));
  PTS_CHECK(max_extent_row_ < row_extent_.size());
  PTS_CHECK(row_extent_[max_extent_row_] == max_extent_);
}

}  // namespace pts::placement
