// Engine-agnostic worker state machines.
//
// The candidate-list worker (ClwSearch) and the tabu-search worker
// bookkeeping (TswState) are written as explicit step/transaction objects
// so the *same* algorithm runs under both engines:
//
//  - the ThreadedEngine drives them from blocking mailbox loops on real
//    threads, charging width trials per CLW step and checking for
//    ForceReport between steps (compound levels);
//  - the SimEngine drives them from a discrete-event scheduler, charging
//    each trial to a machine profile in virtual time and cutting stragglers
//    at the exact virtual cutoff instant.
//
// See DESIGN.md §5.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cost/evaluator.hpp"
#include "support/rng.hpp"
#include "tabu/compound.hpp"
#include "tabu/diversify.hpp"
#include "tabu/search.hpp"
#include "tabu/tabu_list.hpp"

namespace pts::parallel {

/// One candidate-list investigation, steppable one compound level at a
/// time.
///
/// Usage per local iteration:
///   clw.begin(eval, rng);
///   while (!clw.done() && !force_requested) clw.step();
///   CompoundMove r = clw.result();   // full if done, best prefix if cut
///   clw.abandon();                   // restore eval to the start solution
///
/// One step = one level of the compound move (paper §3), run by
/// tabu::commit_best_of_trials exactly as the sequential search runs one:
/// `width` trials sampled, probed in batches and the best committed.
/// Progress is counted in trials, so an engine can time each trial and
/// cut at any trial count (result_at_step). Early accept fires as soon as
/// a committed level improves on the start cost.
class ClwSearch {
 public:
  ClwSearch(tabu::CellRange range, tabu::CompoundParams params);

  /// Starts a new investigation from `eval`'s current solution.
  void begin(cost::Evaluator& eval, Rng& rng);

  bool done() const { return done_; }
  /// Trials executed so far in this investigation (width per step).
  std::size_t steps_taken() const { return steps_; }
  /// Upper bound on trials for a full investigation (width * depth).
  std::size_t max_steps() const { return params_.width * params_.depth; }

  /// Executes one level. Must not be called when done().
  void step();

  /// Best compound prefix discovered so far: the applied-swap prefix with
  /// the lowest cost (possibly empty with cost == start cost). After
  /// done(), per the paper the *final* compound (all applied swaps) is
  /// reported even when an intermediate prefix was cheaper — the compound
  /// move is the unit of acceptance; prefixes are only for forced cuts.
  tabu::CompoundMove result() const;

  /// Best prefix as of `steps` trials completed: only levels whose last
  /// trial is among them count (sim cut support; `steps` <= steps_taken()).
  tabu::CompoundMove result_at_step(std::size_t steps) const;

  double start_cost() const { return start_cost_; }

  /// Undoes every applied swap, restoring the evaluator to the start
  /// solution. Ends the investigation but keeps the prefix records, so
  /// result()/result_at_step() remain valid until the next begin() — the
  /// SimEngine queries cut prefixes after restoring the shared evaluator.
  void abandon();

 private:
  struct PrefixSnapshot {
    std::size_t step;  ///< trials completed when this prefix became best
    std::size_t len;   ///< number of applied swaps in the prefix
    double cost;
  };

  tabu::CellRange range_;
  tabu::CompoundParams params_;

  cost::Evaluator* eval_ = nullptr;
  Rng* rng_ = nullptr;
  /// Movable-cell table hoisted at begin(): step() samples its trials from
  /// it without re-resolving the evaluator->placement->netlist chain.
  std::span<const netlist::CellId> movable_;
  double start_cost_ = 0.0;
  std::size_t steps_ = 0;
  std::vector<tabu::Move> applied_;  ///< one committed swap per level
  double current_cost_ = 0.0;
  bool improved_early_ = false;
  bool done_ = true;
  bool abandoned_ = true;
  std::vector<PrefixSnapshot> best_prefixes_;  ///< strictly improving
};

/// Per-TSW bookkeeping: candidate selection, tabu/aspiration test, best
/// tracking with an improvement timeline, and the diversification step.
class TswState {
 public:
  /// `eval` carries the TSW's current solution and is mutated by accepted
  /// moves; it must outlive the state.
  TswState(cost::Evaluator& eval, const tabu::TabuParams& tabu_params,
           const tabu::DiversifyParams& diversify_params,
           tabu::CellRange diversify_range, Rng rng);

  tabu::TabuList& tabu_list() { return list_; }
  const tabu::SearchStats& stats() const { return stats_; }

  /// Resets per-global-iteration bests to the current solution; the paper's
  /// TSWs report the best found within the current global iteration.
  void begin_global_iteration();

  /// Applies the diversification step w.r.t. this TSW's range and returns
  /// the number of forced swaps (work units for time accounting).
  std::size_t apply_diversification();

  /// Reassigns the diversification range — used when a worker is lost and
  /// the survivors re-partition the movable cells among themselves.
  void set_diversify_range(tabu::CellRange range) { diversify_range_ = range; }

  /// Selects the best candidate (lowest cost, ties to the lowest index),
  /// runs the tabu/aspiration test and, if accepted, applies its swaps to
  /// the evaluator and records them in the tabu list.
  /// Returns the accepted candidate index, or -1 if rejected / all empty.
  int process_candidates(const std::vector<tabu::CompoundMove>& candidates);

  /// Swaps applied by the last accepted candidate (empty if rejected);
  /// the engines forward these to the CLWs as sync deltas.
  const std::vector<tabu::Move>& last_applied() const { return last_applied_; }

  /// Ends a local iteration at time `now` (engine clock); snapshots the
  /// best solution if it improved during this iteration.
  void end_local_iteration(double now);

  /// Adopts a broadcast solution (and optionally the winner's tabu list).
  void adopt(const std::vector<netlist::CellId>& slots,
             const std::vector<tabu::Move>& tabu_entries);

  double iteration_best_cost() const { return iter_best_cost_; }
  const std::vector<netlist::CellId>& iteration_best_slots() const {
    return iter_best_slots_;
  }

  /// Timeline of per-global-iteration improvements: (time, cost, slots).
  struct BestSnapshot {
    double time;
    double cost;
    std::vector<netlist::CellId> slots;
  };
  const std::vector<BestSnapshot>& snapshots() const { return snapshots_; }

  /// Best snapshot with time <= cutoff within the current global
  /// iteration, or nullptr if none (straggler had not improved by then).
  const BestSnapshot* snapshot_at(double cutoff) const;

 private:
  cost::Evaluator* eval_;
  tabu::TabuParams tabu_params_;
  tabu::DiversifyParams diversify_params_;
  tabu::CellRange diversify_range_;
  Rng rng_;
  tabu::TabuList list_;
  tabu::SearchStats stats_;

  double iter_best_cost_ = 0.0;
  std::vector<netlist::CellId> iter_best_slots_;
  bool improved_since_snapshot_ = false;
  std::vector<tabu::Move> last_applied_;
  std::vector<tabu::Move> diversify_scratch_;  ///< reused move buffer
  std::vector<BestSnapshot> snapshots_;
};

}  // namespace pts::parallel
