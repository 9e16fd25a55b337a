#include "placement/overlay.hpp"

#include <algorithm>
#include <limits>

namespace pts::placement {

using netlist::CellId;

SwapOverlay build_swap_overlay(const Placement& p, CellId a, CellId b,
                               std::vector<CellId>* moved) {
  PTS_DCHECK(a != b);
  PTS_DCHECK(moved != nullptr);
  const Layout& layout = p.layout();
  const netlist::Topology& topo = p.netlist().topology();
  const SlotId sa = p.slot_of(a);
  const SlotId sb = p.slot_of(b);
  const std::size_t ra = layout.row_of_slot(sa);
  const std::size_t rb = layout.row_of_slot(sb);
  const Point pa = p.position(a);
  const Point pb = p.position(b);
  const double wa = topo.cell_width(a);
  const double wb = topo.cell_width(b);

  SwapOverlay ov;
  ov.a = a;
  ov.b = b;

  // Walks the would-be occupants of `row` from `first` to the end of the
  // row, substituting the swap — the exact cells, in the exact order,
  // swap_cells' collect_from() pushes after it has updated cell_at_.
  const auto emit_from = [&](std::size_t row, SlotId first) {
    const SlotId end =
        layout.slot_at(row, 0) + static_cast<SlotId>(layout.slots_in_row(row));
    for (SlotId s = first; s < end; ++s) {
      CellId c = p.cell_at(s);
      c = (s == sa) ? b : (s == sb) ? a : c;
      moved->push_back(c);
    }
  };

  if (wa == wb) {
    // Equal widths: only a and b move; their centers trade places.
    ov.a_x = pb.x;
    ov.a_y = pb.y;
    ov.b_x = pa.x;
    ov.b_y = pa.y;
    ov.max_extent = p.max_row_extent();
    moved->push_back(a);
    moved->push_back(b);
    return ov;
  }

  if (ra != rb) {
    // Unequal widths across two rows: b lands where a's column starts
    // (prefix sum up to a's column is pa.x - wa/2, exact), everything after
    // a's column on row ra shifts by the width difference; symmetrically
    // for a on row rb. Both row extents change by the same differences.
    ov.b_x = pa.x - 0.5 * wa + 0.5 * wb;
    ov.b_y = pa.y;
    ov.a_x = pb.x - 0.5 * wb + 0.5 * wa;
    ov.a_y = pb.y;
    ov.row_a_y = pa.y;
    ov.a_lo = pa.x;
    ov.a_hi = std::numeric_limits<double>::infinity();
    ov.shift_a = wb - wa;
    ov.row_b_y = pb.y;
    ov.b_lo = pb.x;
    ov.b_hi = std::numeric_limits<double>::infinity();
    ov.shift_b = wa - wb;

    const double ext_a = p.row_extent(ra) + (wb - wa);
    const double ext_b = p.row_extent(rb) + (wa - wb);
    double max_extent = std::max(ext_a, ext_b);
    for (std::size_t row = 0; row < layout.num_rows(); ++row) {
      if (row != ra && row != rb) {
        max_extent = std::max(max_extent, p.row_extent(row));
      }
    }
    ov.max_extent = max_extent;
    emit_from(ra, sa);
    emit_from(rb, sb);
    return ov;
  }

  // Unequal widths within one row: the right cell lands at the left cell's
  // column start, cells strictly between shift by the width difference, the
  // left cell lands just before the right cell's tail (whose prefix sum
  // grew by the same difference), and cells after the right column keep
  // their prefix sums. The row extent — and with it the max — is unchanged.
  const bool a_left = pa.x < pb.x;
  const double xl = a_left ? pa.x : pb.x;
  const double xr = a_left ? pb.x : pa.x;
  const double wl = a_left ? wa : wb;
  const double wr = a_left ? wb : wa;
  const double left_new_x = xr + 0.5 * wr - 0.5 * wl;   // left cell's new center
  const double right_new_x = xl - 0.5 * wl + 0.5 * wr;  // right cell's new center
  ov.a_x = a_left ? left_new_x : right_new_x;
  ov.a_y = pa.y;
  ov.b_x = a_left ? right_new_x : left_new_x;
  ov.b_y = pb.y;
  ov.row_a_y = pa.y;
  ov.a_lo = xl;
  ov.a_hi = xr;
  ov.shift_a = wr - wl;
  ov.max_extent = p.max_row_extent();
  emit_from(ra, std::min(sa, sb));
  return ov;
}

void stage_moved(const Placement& placement, const SwapOverlay& ov,
                 std::span<const CellId> moved, MovedPositions* out) {
  const auto px = placement.positions_x();
  const auto py = placement.positions_y();
  out->begin();
  for (const CellId c : moved) {
    const double cx = px[c];
    const double cy = py[c];
    const bool in_a = (cy == ov.row_a_y) & (cx > ov.a_lo) & (cx < ov.a_hi);
    const bool in_b = (cy == ov.row_b_y) & (cx > ov.b_lo) & (cx < ov.b_hi);
    double x = cx + (in_a ? ov.shift_a : 0.0) + (in_b ? ov.shift_b : 0.0);
    double y = cy;
    const bool is_a = c == ov.a;
    const bool is_b = c == ov.b;
    x = is_a ? ov.a_x : x;
    y = is_a ? ov.a_y : y;
    x = is_b ? ov.b_x : x;
    y = is_b ? ov.b_y : y;
    out->add(c, cx, x, y);
  }
}

}  // namespace pts::placement
