// Swap-free geometry overlay for trial evaluation.
//
// Scoring a candidate by physically swapping the placement, recomputing the
// touched net boxes, and swapping back costs two geometry mutations (each
// with row prefix-sum rebuilds) per trial. A SwapOverlay instead
// *describes* the would-be geometry of swap_cells(a, b) against the
// untouched committed state: a handful of per-row shift intervals plus the
// new centers of a and b. Evaluator::probe_batch stages the would-be
// position of each moved cell into a MovedPositions (placement/hpwl.hpp) —
// O(moved) writes, each cell stamped with its moved-list index — and the
// box kernel (HpwlState::probe_nets_batch) looks pins up by stamp, so
// scoring N candidates never serializes through placement mutations, never
// copies the committed positions, and classifies no pin against the
// overlay.
//
// Exactness (why overlaid positions are bit-identical to a real swap):
// cell widths are integers, so every committed x center is an exact
// multiple of 0.5 and every row prefix sum is exact in double. The overlay
// shifts (width differences) and the recomputed centers of a and b are the
// same exact values rebuild_row() would produce — no rounding is involved
// anywhere, which is what lets probe_batch promise bit-identity with
// apply_swap (pinned by tests/property_test.cpp).
#pragma once

#include <span>
#include <vector>

#include "placement/hpwl.hpp"
#include "placement/placement.hpp"

namespace pts::placement {

/// The would-be geometry of swap_cells(a, b), relative to the committed
/// placement. A movable cell's overlaid position is:
///   - (a_x, a_y) for a, (b_x, b_y) for b;
///   - shifted by shift_a in x if it lies on row_a_y with x in (a_lo, a_hi);
///   - shifted by shift_b in x if it lies on row_b_y with x in (b_lo, b_hi);
///   - unchanged otherwise.
/// Pads and cells on untouched rows never match (row sentinels are
/// negative; all real y coordinates are positive). The intervals are open:
/// rebuild_row() only shifts cells strictly after the swapped column.
struct SwapOverlay {
  netlist::CellId a = netlist::kNoCell;
  netlist::CellId b = netlist::kNoCell;
  double a_x = 0.0, a_y = 0.0;  ///< new center of a
  double b_x = 0.0, b_y = 0.0;  ///< new center of b
  double row_a_y = -1.0;        ///< y of a's original row (-1: no shift band)
  double row_b_y = -1.0;        ///< y of b's original row (-1: no shift band)
  double a_lo = 0.0, a_hi = 0.0;  ///< open x interval shifted on row_a_y
  double b_lo = 0.0, b_hi = 0.0;  ///< open x interval shifted on row_b_y
  double shift_a = 0.0;           ///< x shift applied inside (a_lo, a_hi)
  double shift_b = 0.0;           ///< x shift applied inside (b_lo, b_hi)
  /// max_row_extent() of the would-be placement (exact, integer-valued).
  double max_extent = 0.0;
};

/// Builds the overlay for swapping movable cells `a` and `b` and appends
/// the would-be moved cells to `moved` in the exact order
/// Placement::swap_cells(a, b, &moved) would report them (same cells, same
/// order — the net-marking order, and with it every downstream summation
/// order, is part of the probe/commit bit-identity contract).
SwapOverlay build_swap_overlay(const Placement& placement, netlist::CellId a,
                               netlist::CellId b,
                               std::vector<netlist::CellId>* moved);

/// Stages every cell of `moved` — build_swap_overlay's list for `ov`, in
/// its order — at its would-be position into `out`, begun afresh. Each
/// position is the select arithmetic a real swap_cells(a, b) evaluates
/// (shift-band offset, then the new centers of a and b overriding), so it
/// is the real swap's bit for bit. Moved cells are all movable: pads never
/// appear in the list, so none is checked against the shift bands.
void stage_moved(const Placement& placement, const SwapOverlay& ov,
                 std::span<const netlist::CellId> moved, MovedPositions* out);

}  // namespace pts::placement
