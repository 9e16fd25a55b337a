// Incremental multi-objective cost evaluation of a placement.
//
// The Evaluator owns a Placement and keeps the HPWL state and the K-paths
// delay estimate consistent with it across swaps. It is the single mutation
// point used by the tabu engine and by every candidate-list worker.
//
// Trial loops score candidate swaps with the probe/commit idiom
// (DESIGN.md §3). One kernel, probe_batch(), scores N candidates without
// changing any observable state; probe_swap() is its width-1 call. The
// last candidate of a probe stays pending, and commit_probe() promotes it
// for the price of the bookkeeping alone — so a rejected trial costs one
// incremental pass instead of the mutate-and-undo pair's two:
//
//   double after = eval.probe_swap(a, b);   // no observable state change
//   if (accept) eval.commit_probe();        // promote that probe; else: done
//
// A probed cost is bit-identical to what apply_swap() would have returned
// against the same running totals (same floating-point summation order), and
// a commit leaves state bit-identical to the equivalent apply_swap() — the
// same-seed determinism guarantee does not care which path evaluated a move.
// Committed mutation stays available for non-trial uses (it is a probe of
// the pair followed by its promotion):
//
//   double after = eval.apply_swap(a, b);   // mutate + incremental update
//   ...
//   eval.apply_swap(a, b);                  // swap is an involution: undo
//
// An Evaluator is one committed state: placement, HPWL state, path sums
// and the rebuild cadence. Everything a probe writes lives in a
// ProbeScratch, so probe_batch() through distinct scratches only reads the
// committed state and several threads may probe one Evaluator at once —
// never while it commits (apply_swap, commit_probe, commit_swap,
// reset_placement, restore_checkpoint). The Evaluator owns one scratch,
// which the single-threaded API (probe_swap, the two-argument probe_batch,
// commit_probe) uses; the shared-memory engine gives each further thread
// its own. The PathSet is immutable and shared. Every scratch is sized up
// front, so neither probe nor commit allocates in steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cost/fuzzy.hpp"
#include "netlist/netlist.hpp"
#include "placement/hpwl.hpp"
#include "placement/placement.hpp"
#include "timing/paths.hpp"

namespace pts::cost {

/// A candidate swap for batched evaluation (Evaluator::probe_batch).
struct Move {
  netlist::CellId a = netlist::kNoCell;
  netlist::CellId b = netlist::kNoCell;
};

/// Candidates per probe_batch call in every trial loop (compound moves,
/// diversification, the shared-memory engine). Scores are independent of
/// the chunking, so this is a throughput constant, not a search parameter.
inline constexpr std::size_t kProbeBatchWidth = 8;

/// Trials of one compound level each pool thread of the shared-memory
/// engine must get — two full probe batches — before a level is worth
/// handing to a thread at all (parallel::SharedEngine::effective_threads).
/// Also a throughput constant: the engine's trajectory does not depend on
/// its thread count.
inline constexpr std::size_t kMinTrialsPerThread = 2 * kProbeBatchWidth;

class Evaluator;

/// Everything one probe writes: the moved list and its staged positions,
/// the net marker, the net changes, the objective tuples, the peeked path
/// sums, and the pending candidate (the last one probed, with its kept net
/// states and HPWL delta). One per probing thread. Each probe writes its
/// counters, so scratches probed by different threads at once must not
/// share a cache line (tabu::TrialPool pads them).
class ProbeScratch {
 public:
  /// Sized for probing `eval`, so probing through it never allocates.
  explicit ProbeScratch(const Evaluator& eval);

 private:
  friend class Evaluator;

  std::vector<netlist::CellId> moved_;
  placement::MovedPositions staged_;
  placement::NetMarker marker_;
  std::vector<placement::NetChange> changes_;
  std::vector<Objectives> objs_;
  std::vector<double> peek_sums_;
  // Pending probe — the last candidate of the last probe_batch through this
  // scratch: the pair, the new state of its touched nets (index-aligned
  // with marker_.nets()), its weighted HPWL delta, and whether the scratch
  // (probed_, marker_ nets, peek_sums_) still describes it.
  placement::ProbedNets probed_;
  netlist::CellId probe_a_ = netlist::kNoCell;
  netlist::CellId probe_b_ = netlist::kNoCell;
  double probe_delta_ = 0.0;
  bool probe_valid_ = false;
};

struct CostParams {
  timing::DelayModel delay_model;
  /// Number of monitored critical paths for the delay estimate.
  std::size_t num_paths = 24;
  /// Goal calibration (see FuzzyGoals::calibrate).
  double target_improvement = 0.7;
  double initial_membership = 0.25;
  double beta = 0.6;
  /// Rebuild HPWL + path sums from scratch every this many swaps (caps
  /// floating-point drift in the running totals).
  std::size_t rebuild_interval = 1u << 14;
};

class Evaluator {
 public:
  /// Takes ownership of `placement`; goals are taken from `goals` so all
  /// workers of one search rank solutions identically.
  Evaluator(placement::Placement placement,
            std::shared_ptr<const timing::PathSet> paths, const CostParams& params,
            const FuzzyGoals& goals);

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  const placement::Placement& placement() const { return placement_; }
  const FuzzyGoals& goals() const { return goals_; }
  const placement::HpwlState& hpwl() const { return hpwl_; }

  /// Current objective vector.
  Objectives objectives() const;
  /// Current scalar cost (1 - OWA of raw memberships); lower is better.
  double cost() const { return goals_.cost(objectives()); }
  /// Current quality in [0, 1]; higher is better.
  double quality() const { return goals_.quality(objectives()); }

  /// Swaps two movable cells, updates all incremental state, and returns
  /// the new scalar cost. Involution: calling again with the same pair
  /// undoes the move. Implemented as probe_swap(a, b) + commit_probe(), so
  /// every commit advances the HPWL runner-ups through one path.
  double apply_swap(netlist::CellId a, netlist::CellId b);

  /// Returns the scalar cost apply_swap(a, b) would return, without
  /// changing any observable state: a width-1 probe_batch(). Bit-identical
  /// to apply_swap() against the same running totals, except that a probe
  /// never triggers the periodic rebuild — probes add no floating-point
  /// drift, so only committed swaps count toward rebuild_interval.
  double probe_swap(netlist::CellId a, netlist::CellId b);

  /// Scores N candidate swaps in one call: costs[i] receives exactly what
  /// apply_swap(moves[i].a, moves[i].b) would return against the current
  /// state — bit-identical, pinned by tests/property_test.cpp — without
  /// mutating the placement geometry at all. Each candidate is described by
  /// a SwapOverlay (placement/overlay.hpp) whose moved cells are staged by
  /// stamp (O(moved) writes, no copy of the committed positions), and its
  /// touched nets are scored by HpwlState::probe_nets_batch — in O(1) from
  /// the committed runner-ups when one moved cell touches the net and stays
  /// in its row, from the pins otherwise; its net changes are replayed
  /// against scratch path sums (PathTimer::peek_delta), and a single
  /// FuzzyGoals OWA pass converts all N objective tuples to costs.
  /// Candidates are scored against the same committed state, so the batch
  /// is equivalent to N sequential probes. The last candidate stays
  /// pending in the scratch: its net states, HPWL delta and peeked path
  /// sums are kept, so commit_probe()/commit_swap() can promote it.
  void probe_batch(std::span<const Move> moves, std::span<double> costs) {
    probe_batch(moves, costs, scratch_);
  }

  /// probe_batch() through caller scratch: reads only the committed state,
  /// so threads each holding their own scratch may probe one Evaluator
  /// concurrently (never during a commit). Costs are bit-identical to the
  /// two-argument form's; the pending candidate stays in `scratch`, which
  /// nothing commits — the Evaluator's own pending probe is untouched.
  void probe_batch(std::span<const Move> moves, std::span<double> costs,
                   ProbeScratch& scratch) const;

  /// Promotes the pending probe — the last candidate of the immediately
  /// preceding probe_batch()/probe_swap() — into the committed state and
  /// returns the new scalar cost. The resulting state is bit-identical to
  /// apply_swap() of the probed pair, but costs only the geometry swap plus
  /// installing the probe's kept net states (boxes and runner-ups) — no
  /// second incremental pass. Invalid after any intervening
  /// apply_swap()/reset_placement().
  double commit_probe();

  /// Commits the winning swap of a trial loop, leaving exactly
  /// apply_swap(a, b)'s state: promotes the pending probe when it is (a, b)
  /// in that orientation, otherwise applies (a, b). A pending (b, a) is
  /// applied, not promoted: it folds the same net changes into the path
  /// sums in another order, so its state can sit an ulp away.
  double commit_swap(netlist::CellId a, netlist::CellId b);

  /// Replaces the current solution (e.g. with a broadcast best) and fully
  /// rebuilds incremental state.
  void reset_placement(const std::vector<netlist::CellId>& cell_at_slot);

  /// Number of swaps applied since construction (diagnostics).
  std::size_t swaps_applied() const { return swaps_applied_; }

  /// Everything needed to rebuild this evaluator's committed state bit for
  /// bit. The slot permutation and the derived geometry are exact stateless
  /// recomputes, but the running HPWL total and the per-path wire sums
  /// carry incremental summation-order drift, and the rebuild cadence
  /// depends on swaps_since_rebuild — so those are captured verbatim.
  struct CheckpointState {
    std::vector<netlist::CellId> slots;
    double hpwl_total = 0.0;
    std::vector<double> wire_sums;
    std::uint64_t swaps_applied = 0;
    std::uint64_t swaps_since_rebuild = 0;
  };

  CheckpointState checkpoint() const;

  /// Restores a checkpoint() image: after this, every probe/apply/commit
  /// produces bit-identical results to the evaluator the image was taken
  /// from. Must be called on an evaluator built over the same netlist,
  /// layout, paths, params, and goals.
  void restore_checkpoint(const CheckpointState& st);

  /// Measures the objectives of the initial placement of a search and
  /// calibrates shared fuzzy goals from them.
  static FuzzyGoals calibrate_goals(const placement::Placement& initial,
                                    const timing::PathSet& paths,
                                    const CostParams& params);

 private:
  friend class ProbeScratch;

  void rebuild_all();

  placement::Placement placement_;
  std::shared_ptr<const timing::PathSet> paths_;
  CostParams params_;
  FuzzyGoals goals_;
  placement::HpwlState hpwl_;
  timing::PathTimer timer_;
  const netlist::Topology* topology_;  // CSR adjacency for the trial gather
  ProbeScratch scratch_;               // the single-threaded API's probes
  std::size_t swaps_applied_ = 0;
  std::size_t swaps_since_rebuild_ = 0;
};

}  // namespace pts::cost
