// Incremental half-perimeter wirelength (HPWL).
//
// Maintains one bounding box per net over the pin positions (pads included)
// of the current placement, and the weighted sum of half-perimeters. After a
// swap, only the nets incident to moved cells change; update_nets()
// recomputes those boxes from scratch (net degrees are small) and adjusts
// the running total. Because box recomputation is stateless, re-applying a
// swap and updating the same nets restores the previous values exactly up
// to floating-point summation order in the running total; callers that
// perform long update sequences (the cost Evaluator) rebuild() periodically
// to cap drift.
//
// Trial moves use the probe/commit pair instead (DESIGN.md §3):
// probe_nets_batch() recomputes the same boxes against caller-staged shadow
// position arrays and returns the weighted delta without touching the
// committed state, optionally keeping the new boxes in caller scratch;
// commit_probe() promotes that scratch wholesale. The delta is accumulated
// in the exact summation order update_nets() would use, so
// `total() + probe_nets_batch(...)` is bit-identical to the total() after
// update_nets() on the same nets against the same committed state.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "placement/placement.hpp"

namespace pts::placement {

struct NetBox {
  double min_x = 0.0, max_x = 0.0, min_y = 0.0, max_y = 0.0;

  double half_perimeter() const { return (max_x - min_x) + (max_y - min_y); }
};

/// Per-net HPWL change reported by update_nets, consumed by the incremental
/// path timer.
struct NetChange {
  netlist::NetId net;
  double old_hpwl;
  double new_hpwl;
};

class HpwlState {
 public:
  explicit HpwlState(const Placement& placement);

  /// Weighted total HPWL of the placement this state tracks.
  double total() const { return total_; }

  double net_hpwl(netlist::NetId net) const {
    PTS_DCHECK(net < boxes_.size());
    return boxes_[net].half_perimeter();
  }
  const NetBox& net_box(netlist::NetId net) const {
    PTS_DCHECK(net < boxes_.size());
    return boxes_[net];
  }

  /// Recomputes the boxes of `nets` against the current placement geometry
  /// and returns the change in weighted total. `nets` must be duplicate-free
  /// (use NetMarker to deduplicate the union of incident nets). If `changes`
  /// is non-null, appends one NetChange per net whose half-perimeter moved.
  double update_nets(std::span<const netlist::NetId> nets,
                     std::vector<NetChange>* changes = nullptr);

  /// Probe counterpart of update_nets(): recomputes the boxes of `nets`
  /// against caller-supplied per-cell position arrays (a shadow copy of the
  /// committed SoA positions with the candidate's moved cells overwritten
  /// via overlaid_position()) and returns the change in weighted total
  /// against the committed boxes, without touching committed state.
  /// Appends the same NetChanges update_nets() would report after a real
  /// swap. The inner loops are branch-free (plain-load min/max box fold,
  /// cursor-style change emission), and the per-net visit order and delta
  /// summation order are exactly update_nets()'s, which keeps every
  /// returned delta bit-identical to the committed path (pinned by
  /// tests/property_test.cpp). When `boxes` is non-null it is resized to
  /// nets.size() and receives the new boxes index-aligned with `nets` (no
  /// allocation once capacity is reached), ready for commit_probe().
  double probe_nets_batch(std::span<const double> xs,
                          std::span<const double> ys,
                          std::span<const netlist::NetId> nets,
                          std::vector<NetChange>* changes,
                          std::vector<NetBox>* boxes = nullptr) const;

  /// Promotes a preceding probe_nets_batch() over the same `nets`:
  /// installs its boxes and folds `delta` into the total, producing state
  /// bit-identical to what update_nets(nets) would have produced.
  void commit_probe(std::span<const netlist::NetId> nets,
                    const std::vector<NetBox>& boxes, double delta);

  /// Full recomputation from the placement.
  void rebuild();

  /// Overwrites the running total after a rebuild(), restoring a
  /// checkpointed value. The incremental total drifts from the from-scratch
  /// sum (summation order differs), so resuming a run bit-identically
  /// requires reinstalling the exact total the interrupted run carried —
  /// the boxes themselves are stateless recomputes and need no restore.
  void restore_total(double total) { total_ = total; }

  /// From-scratch total for verification; does not modify state.
  double compute_fresh_total() const;

 private:
  NetBox compute_box(netlist::NetId net) const;

  const Placement* placement_;
  const netlist::Topology* topology_;  // CSR pin lists + SoA net weights
  std::vector<NetBox> boxes_;
  double total_ = 0.0;
};

/// Epoch-stamped net deduplicator: collects the union of nets incident to a
/// set of moved cells without clearing an O(nets) array per swap.
class NetMarker {
 public:
  explicit NetMarker(std::size_t num_nets) : stamp_(num_nets, 0) {
    // The union can never exceed the net count; reserving up front keeps
    // collection allocation-free from the first swap on.
    nets_.reserve(num_nets);
  }

  /// Begins a new collection round; previously collected nets are forgotten.
  void begin() {
    ++epoch_;
    nets_.clear();
  }

  void add_nets_of(const netlist::Topology& topology, netlist::CellId cell) {
    for (netlist::NetId net : topology.nets_of(cell)) {
      PTS_DCHECK(net < stamp_.size());
      if (stamp_[net] != epoch_) {
        stamp_[net] = epoch_;
        nets_.push_back(net);
      }
    }
  }
  void add_nets_of(const netlist::Netlist& netlist, netlist::CellId cell) {
    add_nets_of(netlist.topology(), cell);
  }

  std::span<const netlist::NetId> nets() const { return nets_; }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
  std::vector<netlist::NetId> nets_;
};

}  // namespace pts::placement
