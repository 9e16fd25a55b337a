#include "parallel/shared_engine.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "cost/evaluator.hpp"
#include "placement/placement.hpp"
#include "support/parallel_for.hpp"
#include "support/stopwatch.hpp"
#include "timing/paths.hpp"

namespace pts::parallel {

SharedCompoundStrategy::SharedCompoundStrategy(
    ThreadPool& pool, std::vector<cost::Evaluator*> evals, std::size_t chunk)
    : pool_(&pool), evals_(std::move(evals)), chunk_(chunk) {
  PTS_CHECK(evals_.size() == pool_->threads());
  cursors_.assign(evals_.size(), 0);
}

void SharedCompoundStrategy::build(cost::Evaluator& eval,
                                   const tabu::CellRange& range,
                                   const tabu::CompoundParams& params, Rng& rng,
                                   const tabu::FrequencyMemory* memory,
                                   tabu::CompoundMove* out) {
  PTS_DCHECK(&eval == evals_[0]);
  const double start_cost = eval.cost();
  const bool use_memory = memory != nullptr && memory->active();
  const std::span<const netlist::CellId> movable =
      eval.placement().netlist().movable_cells();

  tabu::CompoundMove& compound = *out;
  compound.swaps.clear();
  compound.swaps.reserve(params.depth);
  compound.improved_early = false;
  compound.cost = start_cost;
  for (std::size_t level = 0; level < params.depth; ++level) {
    // Sampling stays on the coordinator, in trial order, from the single
    // search stream: probes consume no RNG, so this draws exactly the
    // sequence the sequential sample/probe interleave would.
    moves_.clear();
    for (std::size_t trial = 0; trial < params.width; ++trial) {
      const tabu::Move move = tabu::sample_move(movable, range, rng);
      moves_.push_back({move.a, move.b});
    }
    const std::size_t best =
        commit_best_trial(moves_, memory, use_memory, &compound.cost);
    compound.swaps.push_back({moves_[best].a, moves_[best].b});
    if (params.early_accept && compound.cost < start_cost) {
      compound.improved_early = true;
      break;
    }
  }
}

std::size_t SharedCompoundStrategy::commit_best_trial(
    std::span<const cost::Move> moves, const tabu::FrequencyMemory* memory,
    bool use_memory, double* cost_out) {
  const std::size_t width = moves.size();
  const std::size_t chunk = chunk_ != 0 ? chunk_ : auto_chunk(width);
  costs_.resize(width);

  // Probe every trial against the current committed state. Probes are
  // state-independent of each other, so costs_[i] is the same number
  // whichever thread computes it, in whatever sub-batch. A thread scores
  // its claimed range in sub-batches of kProbeBatchWidth (the sequential
  // loop's chunking).
  parallel_for_chunked(
      *pool_, 0, width, chunk,
      [this, moves](std::size_t worker, std::size_t lo, std::size_t hi) {
        cost::Evaluator& ev = synced_evaluator(worker);
        for (std::size_t i = lo; i < hi; i += cost::kProbeBatchWidth) {
          const std::size_t n = std::min(cost::kProbeBatchWidth, hi - i);
          ev.probe_batch(moves.subspan(i, n), std::span(costs_).subspan(i, n));
        }
      });

  // Sequential reduction with the sequential selection rule. The winner is
  // applied, never promoted: evals_[0]'s pending probe is the last
  // candidate of whichever chunk worker 0 claimed last, and a reversed
  // duplicate of the winner folds its net changes in another order, so
  // promoting would let scheduling reach the committed state.
  const std::size_t best = tabu::select_best(moves, costs_, memory, use_memory);
  const tabu::Move move{moves[best].a, moves[best].b};
  *cost_out = evals_[0]->apply_swap(move.a, move.b);
  oplog_.push_back(move);
  return best;
}

void SharedCompoundStrategy::undo(cost::Evaluator& eval,
                                  const tabu::CompoundMove& move) {
  tabu::undo_compound(eval, move);
  // Log the undo swaps in the order undo_compound applied them so the
  // replicas replay the coordinator's mutation history verbatim (same apply
  // count keeps the drift-control rebuild cadence identical too).
  for (auto it = move.swaps.rbegin(); it != move.swaps.rend(); ++it) {
    oplog_.push_back(*it);
  }
}

/// One chunk per thread and change — coarse enough that the counter is
/// bumped O(threads) times per level, fine enough to rebalance when one
/// thread stalls.
std::size_t SharedCompoundStrategy::auto_chunk(std::size_t width) const {
  const std::size_t grabs = pool_->threads() * 4;
  const std::size_t chunk = width / grabs;
  return chunk >= 1 ? chunk : 1;
}

/// Replays the coordinator's op log suffix onto this worker's replica.
/// Worker 0 probes on the coordinator's evaluator itself, which is always
/// current. Replay is lazy (a worker that claims no work this level catches
/// up next time it does); the cursor guarantees every op is applied exactly
/// once, in order.
cost::Evaluator& SharedCompoundStrategy::synced_evaluator(std::size_t worker) {
  cost::Evaluator& ev = *evals_[worker];
  if (worker != 0) {
    std::size_t& cursor = cursors_[worker];
    while (cursor < oplog_.size()) {
      const tabu::Move& op = oplog_[cursor++];
      ev.apply_swap(op.a, op.b);
    }
  }
  return ev;
}

SharedEngine::SharedEngine(const netlist::Netlist& netlist,
                           const SharedConfig& config)
    : netlist_(&netlist), config_(config) {
  PTS_CHECK(config_.tabu.compound.width >= 1);
  PTS_CHECK(config_.tabu.compound.depth >= 1);
}

std::size_t SharedEngine::effective_threads() const {
  const std::size_t cap =
      netlist_->num_movable() >= 1 ? netlist_->num_movable() : 1;
  const std::size_t requested = config_.params.threads;
  if (requested < 1) return 1;
  return requested < cap ? requested : cap;
}

SharedResult SharedEngine::run() { return run(RunControl{}); }

SharedResult SharedEngine::run(const RunControl& control) {
  const netlist::Netlist& nl = *netlist_;
  const std::size_t threads = effective_threads();

  // Setup recipe identical to the solver's sequential engines: layout,
  // init-stream random placement, K critical paths, goals calibrated
  // against the initial solution.
  const placement::Layout layout(nl);
  Rng init_rng(config_.init_seed);
  auto initial = placement::Placement::random(nl, layout, init_rng);
  auto paths = timing::extract_critical_paths(nl, config_.cost.num_paths,
                                              config_.cost.delay_model);
  const cost::FuzzyGoals goals =
      cost::Evaluator::calibrate_goals(initial, *paths, config_.cost);
  const std::vector<netlist::CellId> initial_slots = initial.slots();
  cost::Evaluator coordinator(std::move(initial), paths, config_.cost, goals);

  // Per-thread replicas of the initial solution. Construction rebuilds all
  // incremental state from the placement, so replica totals are
  // bit-identical to the coordinator's.
  std::vector<std::unique_ptr<cost::Evaluator>> replicas;
  replicas.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    placement::Placement p(nl, layout);
    p.assign_slots(initial_slots);
    replicas.push_back(std::make_unique<cost::Evaluator>(std::move(p), paths,
                                                         config_.cost, goals));
  }
  std::vector<cost::Evaluator*> evals;
  evals.reserve(threads);
  evals.push_back(&coordinator);
  for (auto& r : replicas) evals.push_back(r.get());

  SharedResult out;
  out.initial_cost = coordinator.cost();
  out.threads_used = threads;

  ThreadPool pool(threads);
  SharedCompoundStrategy strategy(pool, std::move(evals),
                                  config_.params.chunk);
  tabu::TabuSearch search(coordinator, config_.tabu, Rng(config_.search_seed));
  search.set_compound_strategy(&strategy);
  const Stopwatch watch;
  out.search = search.run(control);
  out.makespan = watch.seconds();
  return out;
}

}  // namespace pts::parallel
