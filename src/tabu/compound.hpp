// Compound move construction (the candidate-list worker's core loop).
//
// Per the paper: a compound move is built over up to `depth` levels. At each
// level, `width` candidate pairs are scored with Evaluator::probe_batch (one
// incremental pass per trial, no mutate-and-undo) and the best one is kept
// and committed. If the running cost drops below the starting cost before
// reaching max depth, the compound move is accepted immediately without
// further investigation (early accept).
//
// A level is one commit_best_trial call wherever it runs: in the sequential
// search, in a CLW, in diversification, or in the parallel-shared engine,
// which passes a TrialPool so the level's probes run on several threads.
// The pool changes who probes, never what is sampled, selected or committed.
//
// On return the evaluator HAS the compound move applied; undo_compound()
// reverts it (swaps are involutions, so undo re-applies them in reverse).
#pragma once

#include <span>
#include <vector>

#include "cost/evaluator.hpp"
#include "support/parallel_for.hpp"
#include "support/rng.hpp"
#include "tabu/candidate.hpp"
#include "tabu/frequency.hpp"
#include "tabu/move.hpp"

namespace pts::tabu {

struct CompoundParams {
  /// m — candidate pairs trialled per level.
  std::size_t width = 8;
  /// d — maximum number of levels (swaps) in a compound move.
  std::size_t depth = 3;
  /// Early accept: stop as soon as the cost improves on the start cost.
  bool early_accept = true;
};

/// Index of the first strict minimum of `costs` — the selection rule of
/// every candidate loop — ranking each candidate by its memory-adjusted
/// cost when `use_memory`.
std::size_t select_best(std::span<const cost::Move> moves,
                        std::span<const double> costs,
                        const FrequencyMemory* memory, bool use_memory);

class TrialPool;

/// Scores `moves` into `costs` through Evaluator::probe_batch in chunks of
/// cost::kProbeBatchWidth — the trial loop of every best-of-N level. With
/// no `pool` the chunks run through the evaluator's own scratch and the
/// last move stays pending there; with one, threads claim runs of
/// max(1, size / (threads * 4)) moves and chunk each through their own
/// scratch, which nothing promotes. The costs depend on neither.
void probe_trials(cost::Evaluator& eval, std::span<const cost::Move> moves,
                  std::span<double> costs, TrialPool* pool = nullptr);

/// Scores `moves` (probe_trials, on `pool` when given), commits the
/// select_best winner through Evaluator::commit_swap and returns its index;
/// `*cost_out` receives the committed cost. The committed state is exactly
/// apply_swap(winner)'s: commit_swap promotes a winner pending in the
/// evaluator's own scratch and applies any other. The one score, select
/// and commit of every compound and diversification level.
std::size_t commit_best_trial(cost::Evaluator& eval,
                              std::span<const cost::Move> moves,
                              const FrequencyMemory* memory, bool use_memory,
                              double* cost_out, TrialPool* pool = nullptr);

/// Threads that probe one level's trials together, each through a
/// cost::ProbeScratch of its own on cache lines of its own, against the
/// committed state of the evaluator it was sized for. A worker writes only
/// its scratch and its claimed costs, so no thread shares a cache line with
/// the committed state the others read. Worker 0 is the calling thread.
class TrialPool {
 public:
  /// Starts `threads - 1` workers; scratches are sized for probing `eval`.
  TrialPool(std::size_t threads, const cost::Evaluator& eval);

 private:
  friend void probe_trials(cost::Evaluator&, std::span<const cost::Move>,
                           std::span<double>, TrialPool*);

  struct alignas(64) WorkerScratch {
    explicit WorkerScratch(const cost::Evaluator& eval) : probe(eval) {}
    cost::ProbeScratch probe;
  };

  std::vector<WorkerScratch> scratches_;  ///< one per pool thread
  ThreadPool pool_;  ///< after the scratches: joined before they go
};

/// Samples `width` trial pairs from (movable, range, rng) and commits the
/// best through commit_best_trial (probing on `pool` when given); returns
/// the committed swap and writes its cost to `*cost_out`. One level of
/// every compound move (the sequential search's and the CLW's) and every
/// diversification move. Sampling happens here, before any probe, so RNG
/// consumption does not depend on the pool; uses thread_local scratch, so
/// steady state does not allocate.
Move commit_best_of_trials(cost::Evaluator& eval,
                           std::span<const netlist::CellId> movable,
                           const CellRange& range, std::size_t width, Rng& rng,
                           const FrequencyMemory* memory, bool use_memory,
                           double* cost_out, TrialPool* pool = nullptr);

/// Builds and applies a compound move on `eval`, sampling first cells from
/// `range`, writing the applied swaps and final cost into `*out` (cleared
/// first); each level commits through commit_best_trial, probing on `pool`
/// when given. Callers that run every iteration (TabuSearch) pass a reused
/// member buffer so the steady state does not allocate. When `memory` is
/// non-null and active, per-level trial ranking uses the long-term
/// frequency adjustment (true costs are still what the move reports).
void build_compound_move(cost::Evaluator& eval, const CellRange& range,
                         const CompoundParams& params, Rng& rng,
                         const FrequencyMemory* memory, CompoundMove* out,
                         TrialPool* pool = nullptr);

/// Convenience wrapper returning a fresh CompoundMove.
CompoundMove build_compound_move(cost::Evaluator& eval, const CellRange& range,
                                 const CompoundParams& params, Rng& rng,
                                 const FrequencyMemory* memory = nullptr);

/// Reverts a compound move previously applied by build_compound_move.
void undo_compound(cost::Evaluator& eval, const CompoundMove& move);

}  // namespace pts::tabu
