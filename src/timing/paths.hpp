// K-critical-paths delay estimation.
//
// Full STA per candidate move would dominate the search inner loop, so —
// following the practice of the fuzzy goal-directed placers this paper
// builds on — we pre-extract a set of structurally critical paths (the
// critical path of each primary output under uniform net delays, keeping
// the K worst) and estimate circuit delay as the maximum path delay over
// that set.
//
// A path's delay is split into a placement-independent constant (sum of
// cell delays) plus wire_delay_per_unit times the sum of its nets' current
// half-perimeters; the PathTimer maintains those wire sums incrementally
// from per-net HPWL changes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "placement/hpwl.hpp"
#include "timing/delay_model.hpp"

namespace pts::timing {

struct TimingPath {
  /// Cells from primary input to primary output.
  std::vector<netlist::CellId> cells;
  /// Nets traversed between consecutive cells (cells.size() - 1 of them).
  std::vector<netlist::NetId> nets;
  /// Placement-independent component (sum of cell delays along the path).
  double const_delay = 0.0;
};

/// An immutable set of monitored paths with a net→paths reverse index.
/// Shared (const) between all workers of a parallel search. The reverse
/// index and the per-path constant delays are stored flat (CSR / SoA,
/// DESIGN.md §7) because the probe kernel walks them once per net change.
class PathSet {
 public:
  PathSet(const netlist::Netlist& netlist, std::vector<TimingPath> paths);

  std::size_t size() const { return paths_.size(); }
  const TimingPath& path(std::size_t i) const { return paths_[i]; }

  /// Indices of monitored paths that traverse `net` (possibly empty),
  /// ascending. A CSR slice; iteration order matches the old per-net lists.
  std::span<const std::uint32_t> paths_of_net(netlist::NetId net) const {
    // Strict bound also rejects the kNoNet sentinel (uint32 -1), which a
    // `net + 1` formulation would wrap past.
    PTS_DCHECK(net_path_offsets_.size() > 0 &&
               net < net_path_offsets_.size() - 1);
    return {net_paths_.data() + net_path_offsets_[net],
            net_paths_.data() + net_path_offsets_[net + 1]};
  }

  /// Placement-independent delay of every path (SoA copy of
  /// TimingPath::const_delay), indexed by path.
  std::span<const double> const_delays() const { return const_delay_; }

  /// True when at least one monitored path traverses `net` (O(1)). A net
  /// for which this is false is an exact no-op in every wire-sum fold, so
  /// callers may drop its NetChanges without perturbing any delay bit.
  bool net_on_path(netlist::NetId net) const {
    PTS_DCHECK(net_path_offsets_.size() > 0 &&
               net < net_path_offsets_.size() - 1);
    return net_path_offsets_[net + 1] > net_path_offsets_[net];
  }
  /// Number of distinct nets traversed by any monitored path — the per-swap
  /// worst case for timing-relevant NetChanges (scratch sizing).
  std::size_t num_path_nets() const { return num_path_nets_; }

 private:
  std::vector<TimingPath> paths_;
  std::vector<std::uint32_t> net_path_offsets_;  // num_nets + 1
  std::vector<std::uint32_t> net_paths_;         // flat reverse index
  std::vector<double> const_delay_;              // per path
  std::size_t num_path_nets_ = 0;                // nets with >= 1 path
};

/// Extracts up to `k` monitored paths: per primary output, the critical
/// path under uniform net delay; keeps the k largest by constant delay.
std::shared_ptr<const PathSet> extract_critical_paths(
    const netlist::Netlist& netlist, std::size_t k, const DelayModel& model);

/// How many paths extract_critical_paths(netlist, k, ·) returns, without
/// running it: one per primary output, at most k. The extraction sizes its
/// result with this, so state shaped by the monitored set (checkpointed
/// wire sums) can be checked against it.
std::size_t critical_path_count(const netlist::Netlist& netlist, std::size_t k);

/// The max_delay() a PathTimer built over `placement` would report, computed
/// from the pin positions without building an HpwlState (same per-path
/// summation order, same reduction — bit-identical).
double fresh_max_delay(const PathSet& paths,
                       const placement::Placement& placement,
                       const DelayModel& model);

/// Incrementally maintained per-path wire lengths and the resulting delay
/// estimate: part of an Evaluator's committed state (O(K) doubles). Probes
/// peek through caller-owned sums, so the timer itself is read-only to
/// them.
class PathTimer {
 public:
  PathTimer(std::shared_ptr<const PathSet> paths, const placement::HpwlState& hpwl,
            DelayModel model);

  /// Folds one net's HPWL change into the affected path wire sums.
  void apply_net_change(netlist::NetId net, double old_hpwl, double new_hpwl);

  /// Probe counterpart of apply_net_change()+max_delay(): returns the delay
  /// estimate that applying `changes` would produce, computed in `sums` —
  /// the caller's scratch, overwritten with the committed wire sums (no
  /// allocation once it holds K doubles) — so peeks through distinct
  /// scratch may run concurrently. Folds the changes in the exact order
  /// apply_net_change() would and maxes in max_delay()'s loop order, so the
  /// result is bit-identical to the committed sequence. A net on no
  /// monitored path is an exact no-op (no arithmetic at all).
  double peek_delta(std::span<const placement::NetChange> changes,
                    std::vector<double>& sums) const;

  /// Promotes `sums` as the immediately preceding peek_delta() left them.
  /// Only valid directly after it with no intervening mutation.
  void commit_peek(std::vector<double>& sums) { wire_sum_.swap(sums); }

  /// Re-derives all wire sums from `hpwl` (drift control / after rebuild).
  void rebuild(const placement::HpwlState& hpwl);

  /// Estimated circuit delay: max over monitored paths. O(K).
  double max_delay() const;

  /// Committed per-path wire sums (checkpoint capture). Like the HPWL
  /// total, these drift from a from-scratch rebuild, so bit-identical
  /// resume restores the exact checkpointed doubles.
  std::span<const double> wire_sums() const { return wire_sum_; }

  void restore_wire_sums(std::span<const double> sums) {
    PTS_CHECK(sums.size() == wire_sum_.size());
    std::copy(sums.begin(), sums.end(), wire_sum_.begin());
  }

  double path_delay(std::size_t i) const {
    PTS_DCHECK(i < wire_sum_.size());
    return const_delay_[i] + model_.wire_delay(wire_sum_[i]);
  }

  const PathSet& paths() const { return *paths_; }

 private:
  std::shared_ptr<const PathSet> paths_;
  std::span<const double> const_delay_;  // flat view into *paths_
  DelayModel model_;
  std::vector<double> wire_sum_;
};

}  // namespace pts::timing
