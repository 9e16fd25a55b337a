// Sequential tabu search engine (Figure 1 of the paper).
//
// One iteration: build a compound move from the candidate list (best of m
// trial pairs per level, up to depth d, early accept on improvement), then
// apply the tabu test — a compound move is tabu iff any of its constituent
// swaps is tabu (documented choice; the paper tests "the move" without
// specifying composition). A tabu move is still accepted when the
// best-cost aspiration criterion fires. Rejected moves are undone and the
// iteration counts as unproductive.
//
// The same engine runs standalone (this header's TabuSearch::run) and as
// the coordinator of the parallel-shared engine, which passes a TrialPool
// so each level's probes run on several threads. The TSWs of the
// message-passing engines run the same test through parallel::TswState.
#pragma once

#include <vector>

#include "cost/evaluator.hpp"
#include "support/rng.hpp"
#include "support/run_control.hpp"
#include "support/stats.hpp"
#include "tabu/compound.hpp"
#include "tabu/diversify.hpp"
#include "tabu/tabu_list.hpp"

namespace pts::tabu {

struct TabuParams {
  std::size_t tenure = 10;
  TabuAttribute attribute = TabuAttribute::CellPair;
  CompoundParams compound;
  /// Long-term frequency memory (Off by default; sequential engine only).
  FrequencyParams frequency;
  /// Best-cost aspiration: accept a tabu move that beats the best cost.
  bool aspiration = true;
  /// Number of iterations for standalone runs (TSWs use their local
  /// iteration budget instead).
  std::size_t iterations = 200;
  /// Record cost traces every `trace_stride` iterations (0 disables).
  std::size_t trace_stride = 1;
};

struct SearchStats {
  std::size_t iterations = 0;
  std::size_t accepted = 0;
  std::size_t rejected_tabu = 0;
  std::size_t aspirated = 0;
  std::size_t early_accepts = 0;
  /// Candidate trial swaps probed (width x levels built); the work unit the
  /// strong-scaling counters are expressed in.
  std::size_t trials = 0;

  void merge(const SearchStats& other) {
    iterations += other.iterations;
    accepted += other.accepted;
    rejected_tabu += other.rejected_tabu;
    aspirated += other.aspirated;
    early_accepts += other.early_accepts;
    trials += other.trials;
  }
};

struct SearchResult {
  double best_cost = 0.0;
  double best_quality = 0.0;
  cost::Objectives best_objectives;
  /// Slot assignment (cell ids by slot) of the best solution.
  std::vector<netlist::CellId> best_slots;
  Series cost_trace;  ///< current cost per traced iteration
  Series best_trace;  ///< best cost per traced iteration
  /// Best-so-far vs wall seconds; starts at (0, initial cost), one point per
  /// improvement. The y values are deterministic for a fixed seed; the x
  /// values are wall-clock measurements.
  Series best_vs_time;
  SearchStats stats;
  /// Completed unless a caller-supplied stop condition fired first.
  StopReason stop_reason = StopReason::Completed;
};

/// True iff any constituent swap of `move` is tabu.
bool compound_is_tabu(const TabuList& list, const CompoundMove& move);

/// Records every constituent swap of an accepted compound move.
void record_compound(TabuList& list, const CompoundMove& move);

class TabuSearch {
 public:
  /// The evaluator carries the current solution; the search mutates it.
  /// With a `pool` (not owned; sized for `eval`), every compound level
  /// probes its trials on the pool's threads; the trajectory is the same.
  TabuSearch(cost::Evaluator& eval, const TabuParams& params, Rng rng,
             TrialPool* pool = nullptr);

  /// Runs `params.iterations` iterations over the full cell range.
  SearchResult run();

  /// Like run(), but honors caller stop conditions (checked before every
  /// iteration against wall time) and streams progress to the observer.
  /// Checks and callbacks are read-only: a run whose conditions never fire
  /// is bit-identical to run().
  SearchResult run(const RunControl& control);

  /// One tabu iteration restricted to `range`; run() calls it over the
  /// full range. Returns true if the compound move was accepted.
  bool iterate(const CellRange& range);

  TabuList& tabu_list() { return list_; }
  const FrequencyMemory& frequency_memory() const { return frequency_; }

  /// Complete search-side state for checkpoint/restore: RNG stream, tabu
  /// list, long-term memory, best-so-far bookkeeping, and counters. The
  /// evaluator's state is captured separately (Evaluator::checkpoint).
  struct State {
    Rng::State rng;
    std::vector<Move> tabu_entries;
    FrequencyMemory::State frequency;
    double best_cost = 0.0;
    double best_quality = 0.0;
    cost::Objectives best_objectives;
    std::vector<netlist::CellId> best_slots;
    SearchStats stats;
  };

  State state() const;

  /// Restores a state() image taken from a search over the same netlist
  /// and params. run() then continues from stats.iterations, producing the
  /// exact trajectory the interrupted run would have produced.
  void restore(const State& st);

 private:
  void update_best();

  cost::Evaluator* eval_;
  TabuParams params_;
  Rng rng_;
  TabuList list_;
  FrequencyMemory frequency_;
  double best_cost_;
  double best_quality_;
  cost::Objectives best_objectives_;
  std::vector<netlist::CellId> best_slots_;
  SearchStats stats_;
  CompoundMove move_scratch_;  ///< reused per-iteration move buffer
  TrialPool* pool_;  ///< not owned; null probes on the calling thread
};

}  // namespace pts::tabu
