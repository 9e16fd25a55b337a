// Shared-memory parallel tabu search (the "parallel-shared" backend).
//
// The paper's decomposition is reproduced faithfully over a PVM-style
// message protocol (SimEngine / ThreadedEngine); on one machine that
// protocol is pure overhead. This engine instead runs the *sequential*
// tabu search (TabuSearch, Figure 1) and parallelizes the one hot spot
// every iteration has: the width-many candidate probes of each compound
// level. Worker threads share the read-only CSR Topology and each own a
// private Evaluator replica; trials are distributed with the atomic-counter
// parallel-for in support/parallel_for.hpp (chunked grabs for cache
// locality) instead of mailbox messages. See DESIGN.md §8.
//
// Determinism contract — stronger than "deterministic for a fixed thread
// count": the cost trajectory is *independent of the thread count*, and the
// 1-thread run is bit-identical to the sequential "tabu" engine with the
// same seeds. Three properties make that hold (pinned by
// tests/shared_engine_test.cpp):
//
//  1. All candidate sampling happens on the coordinator, from the single
//     search stream, before the parallel region — probes consume no RNG, so
//     the draw order matches the sequential interleaved loop exactly.
//  2. probe_batch changes no observable state and is bit-identical against
//     equal committed state (DESIGN.md §3), so each trial's cost does not
//     depend on which thread probed it or in what order. Replicas replay
//     every coordinator mutation (an op log of committed swaps) before
//     probing, so their committed state is bit-identical to the
//     coordinator's — including the periodic drift-control rebuild, which
//     triggers at the same committed-swap count everywhere.
//  3. The reduction runs on the coordinator in trial-index order with the
//     sequential rule (tabu::select_best: first strict minimum wins) —
//     reduction order is part of the API, exactly like summation order in
//     the CSR layout (§7). The winner is committed with apply_swap, whose
//     state equals the sequential loop's commit; the coordinator's pending
//     probe depends on which chunks worker 0 claimed, so it is never
//     promoted.
//
// Worker threads persist for the whole run (ThreadPool); a level dispatches
// one parallel region. Oversubscribed thread counts are clamped to the
// movable-cell count, mirroring the TSW/CLW engines' worker clamp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "parallel/config.hpp"
#include "support/parallel_for.hpp"
#include "support/run_control.hpp"
#include "tabu/search.hpp"

namespace pts::parallel {

/// Everything one shared-memory run needs. The two seeds are the already
/// derived streams (the solver passes spec.seed ^ kInitStreamSalt /
/// kSearchStreamSalt, which is what makes the 1-thread run bit-identical to
/// the "tabu" engine); direct callers can pass any pair.
struct SharedConfig {
  SharedParams params;
  tabu::TabuParams tabu;
  cost::CostParams cost;
  std::uint64_t init_seed = 1;
  std::uint64_t search_seed = 1;
};

struct SharedResult {
  double initial_cost = 0.0;
  /// The sequential engine's result type, traces and stats included —
  /// the shared backend changes who evaluates trials, not what the search
  /// computes.
  tabu::SearchResult search;
  double makespan = 0.0;  ///< wall seconds
  std::size_t threads_used = 0;  ///< after the movable-cell clamp
};

/// The compound-move strategy SharedEngine installs into TabuSearch.
/// evals[0] is the coordinator's evaluator — the one TabuSearch owns and
/// mutates; evals[1..] are replicas of the same solution, one per further
/// pool thread, that catch up with the coordinator's committed swaps
/// through an op log before they probe. `chunk` 0 picks about four grabs
/// per thread and level.
class SharedCompoundStrategy final : public tabu::CompoundStrategy {
 public:
  SharedCompoundStrategy(ThreadPool& pool, std::vector<cost::Evaluator*> evals,
                         std::size_t chunk);

  void build(cost::Evaluator& eval, const tabu::CellRange& range,
             const tabu::CompoundParams& params, Rng& rng,
             const tabu::FrequencyMemory* memory,
             tabu::CompoundMove* out) override;
  void undo(cost::Evaluator& eval, const tabu::CompoundMove& move) override;

  /// One level: scores `moves` across the pool against the coordinator's
  /// committed state, commits the tabu::select_best winner on evals[0] with
  /// apply_swap, and returns its index; `*cost_out` receives the committed
  /// cost. The parallel counterpart of tabu::commit_best_trial — same
  /// winner, same committed state.
  std::size_t commit_best_trial(std::span<const cost::Move> moves,
                                const tabu::FrequencyMemory* memory,
                                bool use_memory, double* cost_out);

 private:
  std::size_t auto_chunk(std::size_t width) const;
  cost::Evaluator& synced_evaluator(std::size_t worker);

  ThreadPool* pool_;
  std::vector<cost::Evaluator*> evals_;
  std::size_t chunk_;
  /// Every committed mutation of evals_[0], in application order (commits
  /// and undo re-applies alike). Grows by at most 2*depth moves per tabu
  /// iteration — bytes per iteration, never compacted.
  std::vector<tabu::Move> oplog_;
  std::vector<std::size_t> cursors_;  ///< per-worker oplog replay position
  std::vector<cost::Move> moves_;     ///< level scratch: sampled trials
  std::vector<double> costs_;         ///< level scratch: probed costs
};

class SharedEngine {
 public:
  SharedEngine(const netlist::Netlist& netlist, const SharedConfig& config);

  SharedResult run();
  SharedResult run(const RunControl& control);

  /// config.params.threads clamped to [1, num_movable].
  std::size_t effective_threads() const;

 private:
  const netlist::Netlist* netlist_;
  SharedConfig config_;
};

}  // namespace pts::parallel
