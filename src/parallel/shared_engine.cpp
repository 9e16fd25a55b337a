#include "parallel/shared_engine.hpp"

#include <algorithm>
#include <optional>

#include "cost/evaluator.hpp"
#include "cost/setup.hpp"
#include "support/stopwatch.hpp"

namespace pts::parallel {

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

  // One thread runs the sequential loop itself: no pool, no worker scratch.
  std::optional<tabu::TrialPool> pool;
  if (threads > 1) pool.emplace(threads, coordinator);
  tabu::TabuSearch search(coordinator, config_.tabu, Rng(config_.search_seed),
                          pool ? &*pool : nullptr);
  const Stopwatch watch;
  out.search = search.run(control);
  out.makespan = watch.seconds();
  return out;
}

}  // namespace pts::parallel
