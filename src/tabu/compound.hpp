// Compound move construction (the candidate-list worker's core loop).
//
// Per the paper: a compound move is built over up to `depth` levels. At each
// level, `width` candidate pairs are scored with Evaluator::probe_batch (one
// incremental pass per trial, no mutate-and-undo) and the best one is kept
// and committed. If the running cost drops below the starting cost before
// reaching max depth, the compound move is accepted immediately without
// further investigation (early accept).
//
// On return the evaluator HAS the compound move applied; undo_compound()
// reverts it (swaps are involutions, so undo re-applies them in reverse).
#pragma once

#include "cost/evaluator.hpp"
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

/// Scores `moves` into `costs` through Evaluator::probe_batch in chunks of
/// cost::kProbeBatchWidth — the trial loop of every best-of-N level. The
/// costs do not depend on the chunking; the last move stays pending.
void probe_trials(cost::Evaluator& eval, std::span<const cost::Move> moves,
                  std::span<double> costs);

/// Scores `moves` (probe_trials), commits the select_best winner through
/// Evaluator::commit_swap and returns its index; `*cost_out` receives the
/// committed cost. The committed state is exactly apply_swap(winner)'s.
std::size_t commit_best_trial(cost::Evaluator& eval,
                              std::span<const cost::Move> moves,
                              const FrequencyMemory* memory, bool use_memory,
                              double* cost_out);

/// How a compound level scores its sampled trials and commits the winner:
/// the seam where the shared-memory engine substitutes probing on a thread
/// pool for commit_best_trial(), which runs when no strategy is given. An
/// implementation must return commit_best_trial()'s winner (first strict
/// minimum in trial-index order) and leave the evaluator exactly as
/// apply_swap(winner) would. Sampling stays in the caller, so RNG
/// consumption cannot depend on the strategy — together these keep every
/// TabuSearch guarantee (same-seed determinism, trace parity) independent
/// of it.
class CompoundStrategy {
 public:
  virtual ~CompoundStrategy() = default;
  virtual std::size_t commit_best_trial(cost::Evaluator& eval,
                                        std::span<const cost::Move> moves,
                                        const FrequencyMemory* memory,
                                        bool use_memory, double* cost_out) = 0;
};

/// Samples `width` trial pairs from (movable, range, rng) and commits the
/// best through `strategy` (commit_best_trial when null); returns the
/// committed swap and writes its cost to `*cost_out`. One level of every
/// compound move (the sequential search's and the CLW's) and every
/// diversification move; uses thread_local scratch, so steady state does
/// not allocate.
Move commit_best_of_trials(cost::Evaluator& eval,
                           std::span<const netlist::CellId> movable,
                           const CellRange& range, std::size_t width, Rng& rng,
                           const FrequencyMemory* memory, bool use_memory,
                           double* cost_out,
                           CompoundStrategy* strategy = nullptr);

/// Builds and applies a compound move on `eval`, sampling first cells from
/// `range`, writing the applied swaps and final cost into `*out` (cleared
/// first); each level commits through `strategy` (commit_best_trial when
/// null). Callers that run every iteration (TabuSearch) pass a reused
/// member buffer so the steady state does not allocate. When `memory` is
/// non-null and active, per-level trial ranking uses the long-term
/// frequency adjustment (true costs are still what the move reports).
void build_compound_move(cost::Evaluator& eval, const CellRange& range,
                         const CompoundParams& params, Rng& rng,
                         const FrequencyMemory* memory, CompoundMove* out,
                         CompoundStrategy* strategy = nullptr);

/// Convenience wrapper returning a fresh CompoundMove.
CompoundMove build_compound_move(cost::Evaluator& eval, const CellRange& range,
                                 const CompoundParams& params, Rng& rng,
                                 const FrequencyMemory* memory = nullptr);

/// Reverts a compound move previously applied by build_compound_move.
void undo_compound(cost::Evaluator& eval, const CompoundMove& move);

}  // namespace pts::tabu
