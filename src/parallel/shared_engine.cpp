#include "parallel/shared_engine.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "cost/evaluator.hpp"
#include "cost/setup.hpp"
#include "support/parallel_for.hpp"
#include "support/stopwatch.hpp"

namespace pts::parallel {

SharedCompoundStrategy::SharedCompoundStrategy(ThreadPool& pool,
                                               const cost::Evaluator& eval)
    : pool_(&pool) {
  scratches_.reserve(pool.threads());
  for (std::size_t t = 0; t < pool.threads(); ++t) scratches_.emplace_back(eval);
}

std::size_t SharedCompoundStrategy::commit_best_trial(
    cost::Evaluator& eval, std::span<const cost::Move> moves,
    const tabu::FrequencyMemory* memory, bool use_memory, double* cost_out) {
  const std::size_t width = moves.size();
  costs_.resize(width);
  // About four grabs per thread: the counter is bumped O(threads) times per
  // level, yet a stalled thread's share is rebalanced.
  const std::size_t chunk =
      std::max<std::size_t>(1, width / (pool_->threads() * 4));

  // Probe every trial against the committed state, which nothing mutates
  // until the region ends, so costs_[i] is the same number whichever
  // thread computes it, in whatever sub-batch. A thread scores its claimed
  // range in sub-batches of kProbeBatchWidth (the sequential loop's).
  const cost::Evaluator& committed = eval;
  parallel_for_chunked(
      *pool_, 0, width, chunk,
      [&](std::size_t worker, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; i += cost::kProbeBatchWidth) {
          const std::size_t n = std::min(cost::kProbeBatchWidth, hi - i);
          committed.probe_batch(moves.subspan(i, n),
                                std::span(costs_).subspan(i, n),
                                scratches_[worker].probe);
        }
      });

  // Sequential reduction with the sequential selection rule, and the one
  // commit rule. The probes stay pending in the worker scratches, not in
  // eval's, so commit_swap applies the winner.
  const std::size_t best = tabu::select_best(moves, costs_, memory, use_memory);
  *cost_out = eval.commit_swap(moves[best].a, moves[best].b);
  return best;
}

SharedEngine::SharedEngine(const netlist::Netlist& netlist,
                           const SharedConfig& config)
    : netlist_(&netlist), config_(config) {
  PTS_CHECK(config_.tabu.compound.width >= 1);
  PTS_CHECK(config_.tabu.compound.depth >= 1);
}

std::size_t SharedEngine::effective_threads() const {
  const std::size_t width_cap =
      config_.tabu.compound.width / cost::kMinTrialsPerThread;
  return clamp_workers(config_.params.threads,
                       std::min(netlist_->num_movable(), width_cap));
}

SharedResult SharedEngine::run() { return run(RunControl{}); }

SharedResult SharedEngine::run(const RunControl& control) {
  const std::size_t threads = effective_threads();
  // The sequential engines' setup recipe, so one thread is "tabu" exactly.
  const cost::EvaluatorSetup setup =
      cost::make_evaluator_setup(*netlist_, config_.cost, config_.init_seed);
  cost::Evaluator& coordinator = *setup.eval;

  SharedResult out;
  out.initial_cost = coordinator.cost();
  out.threads_used = threads;

  // One thread runs the sequential loop's own tabu::commit_best_trial.
  std::optional<ThreadPool> pool;
  std::optional<SharedCompoundStrategy> strategy;
  if (threads > 1) {
    pool.emplace(threads);
    strategy.emplace(*pool, coordinator);
  }
  tabu::TabuSearch search(coordinator, config_.tabu, Rng(config_.search_seed));
  if (strategy) search.set_compound_strategy(&*strategy);
  const Stopwatch watch;
  out.search = search.run(control);
  out.makespan = watch.seconds();
  return out;
}

}  // namespace pts::parallel
