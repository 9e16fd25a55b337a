#include "baselines/constructive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pts::baselines {

using netlist::CellId;
using netlist::NetId;
using placement::Layout;
using placement::Placement;
using placement::SlotId;

Placement random_placement(const netlist::Netlist& netlist, const Layout& layout,
                           Rng& rng) {
  return Placement::random(netlist, layout, rng);
}

Placement greedy_placement(const netlist::Netlist& netlist, const Layout& layout,
                           Rng& rng) {
  const auto& movable = netlist.movable_cells();
  const std::size_t n = movable.size();

  // Dense index for movable cells.
  std::vector<std::size_t> movable_index(netlist.num_cells(), n);
  for (std::size_t k = 0; k < n; ++k) movable_index[movable[k]] = k;

  // Degree = number of incident pins; seed with the most connected cell.
  std::vector<std::size_t> degree(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    degree[k] = netlist.nets_of(movable[k]).size();
  }
  const std::size_t seed_cell = static_cast<std::size_t>(
      std::max_element(degree.begin(), degree.end()) - degree.begin());

  // Slot visit order: center-out spiral approximated by sorting slots by
  // distance to the layout center, so strongly connected cells cluster.
  struct SlotPos {
    SlotId slot;
    double x, y;
  };
  std::vector<SlotPos> slot_pos;
  slot_pos.reserve(layout.num_slots());
  {
    // Approximate slot centers assuming average cell width.
    const double avg_w =
        static_cast<double>(netlist.total_movable_width()) / static_cast<double>(n);
    for (SlotId s = 0; s < layout.num_slots(); ++s) {
      const double x =
          (static_cast<double>(layout.column_of_slot(s)) + 0.5) * avg_w;
      const double y = layout.row_y(layout.row_of_slot(s));
      slot_pos.push_back({s, x, y});
    }
  }

  std::vector<char> slot_used(layout.num_slots(), 0);
  std::vector<SlotId> assignment(n, placement::kNoSlot);
  std::vector<char> placed(n, 0);
  // connectivity[k] = number of nets shared with already placed cells.
  std::vector<std::size_t> connectivity(n, 0);

  auto place_cell = [&](std::size_t k, SlotId slot) {
    assignment[k] = slot;
    slot_used[slot] = 1;
    placed[k] = 1;
    for (NetId net : netlist.nets_of(movable[k])) {
      for (CellId c : netlist.topology().pins(net)) {
        const std::size_t idx = movable_index[c];
        if (idx < n && !placed[idx]) ++connectivity[idx];
      }
    }
  };

  // Seed at the slot closest to the layout center.
  const double cx = layout.nominal_width() * 0.5;
  const double cy = layout.core_height() * 0.5;
  SlotId center_slot = 0;
  double center_d = std::numeric_limits<double>::max();
  for (const auto& sp : slot_pos) {
    const double d = std::hypot(sp.x - cx, sp.y - cy);
    if (d < center_d) {
      center_d = d;
      center_slot = sp.slot;
    }
  }
  place_cell(seed_cell, center_slot);

  for (std::size_t step = 1; step < n; ++step) {
    // Most-connected unplaced cell (ties broken randomly for variety).
    std::size_t best_k = n;
    std::size_t best_conn = 0;
    std::size_t ties = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (placed[k]) continue;
      if (best_k == n || connectivity[k] > best_conn) {
        best_k = k;
        best_conn = connectivity[k];
        ties = 1;
      } else if (connectivity[k] == best_conn) {
        ++ties;
        if (rng.below(ties) == 0) best_k = k;
      }
    }
    PTS_CHECK(best_k < n);

    // Centroid of placed neighbors (fall back to layout center).
    double sx = 0.0, sy = 0.0;
    std::size_t neighbors = 0;
    for (NetId net : netlist.nets_of(movable[best_k])) {
      for (CellId c : netlist.topology().pins(net)) {
        const std::size_t idx = movable_index[c];
        if (idx < n && placed[idx]) {
          const auto& sp = slot_pos[assignment[idx]];
          sx += sp.x;
          sy += sp.y;
          ++neighbors;
        }
      }
    }
    const double tx = neighbors > 0 ? sx / static_cast<double>(neighbors) : cx;
    const double ty = neighbors > 0 ? sy / static_cast<double>(neighbors) : cy;

    // Closest free slot to the target point.
    SlotId best_slot = placement::kNoSlot;
    double best_d = std::numeric_limits<double>::max();
    for (const auto& sp : slot_pos) {
      if (slot_used[sp.slot]) continue;
      const double d = std::hypot(sp.x - tx, sp.y - ty);
      if (d < best_d) {
        best_d = d;
        best_slot = sp.slot;
      }
    }
    PTS_CHECK(best_slot != placement::kNoSlot);
    place_cell(best_k, best_slot);
  }

  std::vector<CellId> cell_at(layout.num_slots(), netlist::kNoCell);
  for (std::size_t k = 0; k < n; ++k) cell_at[assignment[k]] = movable[k];
  Placement p(netlist, layout);
  p.assign_slots(cell_at);
  return p;
}

}  // namespace pts::baselines
