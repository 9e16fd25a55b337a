#include "tabu/compound.hpp"

#include <algorithm>

namespace pts::tabu {
namespace {

/// Per-level trial scratch. thread_local so the free-function call sites
/// (every engine's workers call through here) stay allocation-free in
/// steady state without threading a buffer through each signature.
struct TrialScratch {
  std::vector<cost::Move> moves;
  std::vector<double> costs;
};
TrialScratch& trial_scratch() {
  thread_local TrialScratch scratch;
  return scratch;
}

}  // namespace

std::size_t select_best(std::span<const cost::Move> moves,
                        std::span<const double> costs,
                        const FrequencyMemory* memory, bool use_memory) {
  PTS_CHECK(!moves.empty() && costs.size() == moves.size());
  std::size_t best = 0;
  double best_cost = 0.0;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    double cost_after = costs[i];
    if (use_memory) {
      cost_after =
          memory->adjusted_cost(Move{moves[i].a, moves[i].b}, cost_after);
    }
    if (i == 0 || cost_after < best_cost) {
      best = i;
      best_cost = cost_after;
    }
  }
  return best;
}

TrialPool::TrialPool(std::size_t threads, const cost::Evaluator& eval)
    : pool_(threads) {
  scratches_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) scratches_.emplace_back(eval);
}

void probe_trials(cost::Evaluator& eval, std::span<const cost::Move> moves,
                  std::span<double> costs, TrialPool* pool) {
  PTS_DCHECK(costs.size() == moves.size());
  // Scores moves[lo, hi) in probe_batch calls of kProbeBatchWidth; the
  // costs do not depend on the chunking nor on the scratch probed through.
  const auto probe_range = [&](std::size_t lo, std::size_t hi,
                               const auto& probe) {
    for (std::size_t i = lo; i < hi; i += cost::kProbeBatchWidth) {
      const std::size_t n = std::min(cost::kProbeBatchWidth, hi - i);
      probe(moves.subspan(i, n), costs.subspan(i, n));
    }
  };
  if (pool == nullptr) {
    probe_range(0, moves.size(),
                [&](std::span<const cost::Move> m, std::span<double> c) {
                  eval.probe_batch(m, c);
                });
    return;
  }
  // Every thread probes the committed state, which nothing mutates until
  // the region ends. About four grabs per thread: the counter is bumped
  // O(threads) times per level, yet a stalled thread's share is rebalanced.
  const cost::Evaluator& committed = eval;
  const std::size_t chunk =
      std::max<std::size_t>(1, moves.size() / (pool->pool_.threads() * 4));
  parallel_for_chunked(
      pool->pool_, 0, moves.size(), chunk,
      [&](std::size_t worker, std::size_t lo, std::size_t hi) {
        cost::ProbeScratch& scratch = pool->scratches_[worker].probe;
        probe_range(lo, hi,
                    [&](std::span<const cost::Move> m, std::span<double> c) {
                      committed.probe_batch(m, c, scratch);
                    });
      });
}

std::size_t commit_best_trial(cost::Evaluator& eval,
                              std::span<const cost::Move> moves,
                              const FrequencyMemory* memory, bool use_memory,
                              double* cost_out, TrialPool* pool) {
  std::vector<double>& costs = trial_scratch().costs;
  costs.resize(moves.size());
  probe_trials(eval, moves, costs, pool);
  const std::size_t best = select_best(moves, costs, memory, use_memory);
  *cost_out = eval.commit_swap(moves[best].a, moves[best].b);
  return best;
}

// Every pair is drawn before probing — probes consume no RNG, so the sample
// stream is the one an interleaved sample/probe loop would read.
Move commit_best_of_trials(cost::Evaluator& eval,
                           std::span<const netlist::CellId> movable,
                           const CellRange& range, std::size_t width, Rng& rng,
                           const FrequencyMemory* memory, bool use_memory,
                           double* cost_out, TrialPool* pool) {
  PTS_CHECK(width >= 1);
  std::vector<cost::Move>& moves = trial_scratch().moves;
  moves.clear();
  for (std::size_t trial = 0; trial < width; ++trial) {
    const Move move = sample_move(movable, range, rng);
    moves.push_back({move.a, move.b});
  }
  const std::size_t best =
      commit_best_trial(eval, moves, memory, use_memory, cost_out, pool);
  return Move{moves[best].a, moves[best].b};
}

void build_compound_move(cost::Evaluator& eval, const CellRange& range,
                         const CompoundParams& params, Rng& rng,
                         const FrequencyMemory* memory, CompoundMove* out,
                         TrialPool* pool) {
  PTS_CHECK(params.width >= 1);
  PTS_CHECK(params.depth >= 1);
  PTS_DCHECK(out != nullptr);
  const double start_cost = eval.cost();
  const bool use_memory = memory != nullptr && memory->active();
  const std::span<const netlist::CellId> movable =
      eval.placement().netlist().movable_cells();

  CompoundMove& compound = *out;
  compound.swaps.clear();
  compound.swaps.reserve(params.depth);
  compound.improved_early = false;
  compound.cost = start_cost;
  for (std::size_t level = 0; level < params.depth; ++level) {
    // Keep the level's best move (even if it degrades cost — that is what
    // lets the compound move escape local minima).
    compound.swaps.push_back(commit_best_of_trials(
        eval, movable, range, params.width, rng, memory, use_memory,
        &compound.cost, pool));
    if (params.early_accept && compound.cost < start_cost) {
      compound.improved_early = true;
      break;
    }
  }
}

CompoundMove build_compound_move(cost::Evaluator& eval, const CellRange& range,
                                 const CompoundParams& params, Rng& rng,
                                 const FrequencyMemory* memory) {
  CompoundMove compound;
  build_compound_move(eval, range, params, rng, memory, &compound);
  return compound;
}

void undo_compound(cost::Evaluator& eval, const CompoundMove& move) {
  for (auto it = move.swaps.rbegin(); it != move.swaps.rend(); ++it) {
    eval.apply_swap(it->a, it->b);
  }
}

}  // namespace pts::tabu
