// Shared-memory parallel tabu search (the "parallel-shared" backend).
//
// The paper's decomposition is reproduced faithfully over a PVM-style
// message protocol (SimEngine / ThreadedEngine); on one machine that
// protocol is pure overhead. This engine instead runs the *sequential*
// tabu search (TabuSearch, Figure 1) and parallelizes the one hot spot
// every iteration has: the width-many candidate probes of each compound
// level. It hands its TabuSearch a tabu::TrialPool, so every level runs
// the sequential tabu::commit_best_trial with its probes spread over the
// pool: every thread probes the coordinator's one Evaluator — its
// committed state is read-only during a level — through its own
// ProbeScratch, and trials are distributed with the atomic-counter
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
//  2. There is one committed state, and a level only reads it: every
//     thread probes the coordinator's Evaluator through a scratch of its
//     own, and only the coordinator commits, between parallel regions. A
//     probe is a pure function of the committed state and the pair
//     (DESIGN.md §3), so each trial's cost does not depend on which thread
//     probed it or in what order. Nothing is replayed, so the periodic
//     drift-control rebuild has one cadence.
//  3. The reduction runs on the coordinator in trial-index order with the
//     sequential rule (tabu::select_best: first strict minimum wins) —
//     reduction order is part of the API, exactly like summation order in
//     the CSR layout (§7). The winner is committed through commit_swap in
//     the same commit_best_trial call, which applies it here: the probes
//     stay pending in the threads' scratches, which nothing promotes.
//
// Thread count: a level is handed to the pool only when every thread gets
// at least cost::kMinTrialsPerThread of its trials (two full probe
// batches); below that the handoff costs more than the probes it spreads.
// So the engine runs clamp_workers(threads, min(movable cells, width /
// kMinTrialsPerThread)) threads — the movable-cell part mirrors the TSW/CLW
// engines' worker clamp. Paper circuits (width 8) run on one thread,
// scale10k (width 100) on up to 6 and scale50k (width 223) on up to 13. A
// one-thread run is the sequential loop itself: no TrialPool, no worker
// scratch. On more threads the workers persist for the whole run and a
// level dispatches one parallel region. Property 2 makes where a level
// runs invisible in the result.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hpp"
#include "parallel/config.hpp"
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
  std::size_t threads_used = 0;  ///< effective_threads(): after the clamp
};

class SharedEngine {
 public:
  SharedEngine(const netlist::Netlist& netlist, const SharedConfig& config);

  SharedResult run();
  SharedResult run(const RunControl& control);

  /// The threads a run uses: config.params.threads clamped to [1,
  /// min(num_movable, compound width / cost::kMinTrialsPerThread)].
  std::size_t effective_threads() const;

 private:
  const netlist::Netlist* netlist_;
  SharedConfig config_;
};

}  // namespace pts::parallel
