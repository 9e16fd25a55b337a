#include "tabu/diversify.hpp"

#include "tabu/compound.hpp"

namespace pts::tabu {

void diversify(cost::Evaluator& eval, const CellRange& range,
               const DiversifyParams& params, Rng& rng,
               std::vector<Move>* applied) {
  PTS_DCHECK(applied != nullptr);
  applied->clear();
  if (!params.enabled || range.empty()) return;
  PTS_CHECK(params.width >= 1);
  applied->reserve(params.depth);
  const std::span<const netlist::CellId> movable =
      eval.placement().netlist().movable_cells();
  for (std::size_t level = 0; level < params.depth; ++level) {
    double committed_cost = 0.0;
    applied->push_back(commit_best_of_trials(
        eval, movable, range, params.width, rng, /*memory=*/nullptr,
        /*use_memory=*/false, &committed_cost));
  }
}

std::vector<Move> diversify(cost::Evaluator& eval, const CellRange& range,
                            const DiversifyParams& params, Rng& rng) {
  std::vector<Move> applied;
  diversify(eval, range, params, rng, &applied);
  return applied;
}

}  // namespace pts::tabu
