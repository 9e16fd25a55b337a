#include "baselines/local_search.hpp"

#include "support/stopwatch.hpp"
#include "tabu/candidate.hpp"
#include "tabu/compound.hpp"

namespace pts::baselines {

LocalSearchResult local_search(cost::Evaluator& eval,
                               const LocalSearchParams& params, Rng& rng,
                               const RunControl& control) {
  PTS_CHECK(params.candidates_per_iteration >= 1);
  const auto& netlist = eval.placement().netlist();
  const std::span<const netlist::CellId> movable = netlist.movable_cells();
  const tabu::CellRange range = tabu::full_range(netlist);

  LocalSearchResult result;
  result.best_trace.name = "ls_best";
  double current = eval.cost();
  result.best_cost = current;
  result.best_quality = eval.quality();
  result.best_slots = eval.placement().slots();

  // Every candidate is drawn before probing — probes consume no RNG, so the
  // draws are an interleaved sample/probe loop's.
  std::vector<cost::Move> moves(params.candidates_per_iteration);
  std::vector<double> costs(moves.size());
  const Stopwatch watch;
  std::size_t stale = 0;
  for (std::size_t iter = 0; iter < params.max_iterations; ++iter) {
    if (const auto reason = control.should_stop(
            iter, control.needs_clock() ? watch.seconds() : 0.0,
            result.best_cost, result.best_quality)) {
      result.stop_reason = *reason;
      break;
    }
    ++result.iterations;
    for (cost::Move& move : moves) {
      const tabu::Move m = tabu::sample_move(movable, range, rng);
      move = {m.a, m.b};
    }
    tabu::probe_trials(eval, moves, costs);
    const std::size_t best = tabu::select_best(moves, costs, /*memory=*/nullptr,
                                               /*use_memory=*/false);
    if (costs[best] < current) {
      current = eval.commit_swap(moves[best].a, moves[best].b);
      stale = 0;
      if (current < result.best_cost) {
        result.best_cost = current;
        result.best_quality = eval.quality();
        result.best_slots = eval.placement().slots();
        if (control.observer != nullptr) {
          control.notify_improvement(
              {iter + 1, watch.seconds(), current, result.best_cost});
        }
      }
    } else if (++stale >= params.patience) {
      result.converged = true;
      break;
    }
    if (params.trace_stride != 0 && iter % params.trace_stride == 0) {
      result.best_trace.add(static_cast<double>(iter), result.best_cost);
    }
    if (control.observer != nullptr) {
      control.notify_iteration(
          {iter + 1, watch.seconds(), current, result.best_cost});
    }
  }
  return result;
}

}  // namespace pts::baselines
