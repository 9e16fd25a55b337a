// Diversification (Kelly, Laguna & Glover style, reference [10]).
//
// At the start of every global iteration, each TSW diversifies the shared
// best solution *with respect to its own cell range*: `depth` moves whose
// first cell comes from the range. A "move" here is the paper's standard
// move — the best of `width` trial swaps — so diversification walks each
// TSW along a different, quality-preserving path from the incumbent
// ("such that a different initial solution is used at each TSW", §4.1).
// Distinct ranges give every TSW a different starting point, which is what
// keeps the multi-search threads from exploring overlapping areas and what
// makes the search MPSS (multiple points, single strategy, §4.3).
#pragma once

#include "cost/evaluator.hpp"
#include "support/rng.hpp"
#include "tabu/candidate.hpp"
#include "tabu/move.hpp"

namespace pts::tabu {

struct DiversifyParams {
  /// Number of moves applied during one diversification step.
  std::size_t depth = 4;
  /// Trial swaps per move (best one is applied, even if degrading).
  std::size_t width = 8;
  /// If false the step is skipped entirely (Figure 9's "no
  /// diversification" run).
  bool enabled = true;
};

/// Applies the diversification step to `eval`'s current solution
/// (diversification is kept, not undone), clearing `applied` and filling it
/// with the applied moves. Callers that run every global iteration (the
/// TSW state machine) pass a reused member buffer so the steady state does
/// not allocate. The number of trial evaluations charged to the TSW is
/// depth * width.
void diversify(cost::Evaluator& eval, const CellRange& range,
               const DiversifyParams& params, Rng& rng,
               std::vector<Move>* applied);

/// Convenience wrapper returning a fresh move buffer.
std::vector<Move> diversify(cost::Evaluator& eval, const CellRange& range,
                            const DiversifyParams& params, Rng& rng);

}  // namespace pts::tabu
