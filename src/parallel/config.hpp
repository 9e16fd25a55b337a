// Configuration and result types for the parallel tabu search.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cost/evaluator.hpp"
#include "parallel/policy.hpp"
#include "pvm/machine.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/run_control.hpp"
#include "support/stats.hpp"
#include "tabu/search.hpp"

namespace pts::parallel {

/// Work-unit accounting used by the virtual-time engine and by charge()
/// calls in the threaded engine. The unit is "one candidate trial swap";
/// everything else is expressed relative to it.
struct SimCosts {
  /// Work per CLW trial (apply + evaluate + undo one swap).
  double trial_work = 1.0;
  /// Work per forced diversification swap on the TSW.
  double diversify_work_per_swap = 1.0;
  /// TSW work per candidate examined during selection/tabu testing.
  double tsw_select_work = 0.25;
  /// Master work per TSW report examined during global selection.
  double master_select_work = 0.5;
  /// One-way message latency in virtual seconds (LAN hop).
  double message_latency = 0.02;
  /// Model time-sharing among co-resident tasks (see SimEngine docs). Each
  /// task contributes an *activity weight* to its machine — CLWs compute
  /// almost continuously (1.0), TSWs mostly wait on their CLWs
  /// (tsw_activity), the master is negligible — and every worker on a
  /// machine with total weight W > 1 runs at speed/W.
  bool model_contention = true;
  double tsw_activity = 0.15;
};

/// Parameters of the shared-memory backend ("parallel-shared"). Lives here
/// (not in shared_engine.hpp) so SolveSpec can embed it without pulling the
/// engine into the solver header.
struct SharedParams {
  /// The most worker threads the candidate evaluation may use. The engine
  /// uses fewer (at least 1) when a compound level is too narrow to give
  /// each thread two probe batches, or when there are fewer movable cells
  /// (SharedEngine::effective_threads). Results are independent of the
  /// thread count (see shared_engine.hpp), so this is purely a throughput
  /// knob.
  std::size_t threads = 4;
};

struct PtsConfig {
  /// High-level parallelization degree (multi-search threads).
  std::size_t num_tsws = 4;
  /// Low-level parallelization degree (candidate-list workers per TSW).
  std::size_t clws_per_tsw = 1;
  /// L — tabu iterations each TSW runs per global iteration.
  std::size_t local_iterations = 10;
  /// G — master collect/broadcast rounds.
  std::size_t global_iterations = 10;

  tabu::TabuParams tabu;
  tabu::DiversifyParams diversify;
  cost::CostParams cost;

  /// The emulated cluster (paper: 7 fast / 3 medium / 2 slow).
  pvm::ClusterConfig cluster = pvm::ClusterConfig::paper_cluster();

  /// Collection policy master -> TSWs and TSW -> CLWs. The paper applies
  /// the same rule at both levels (§4.2).
  PolicyParams master_policy;
  PolicyParams tsw_policy;

  SimCosts sim;
  std::uint64_t seed = 1;

  /// When true, every TSW (and its CLWs) draws from the *same* random
  /// stream, so without diversification all TSWs duplicate the same search
  /// exactly. This is the faithful reading of the paper's MPSS
  /// classification — diversification w.r.t. distinct cell ranges is what
  /// makes the search "multiple points" (§4.3) — and is what Figure 9
  /// ablates. Default false: each worker gets an independent stream.
  bool shared_tsw_streams = false;

  /// Real-time throttling for the threaded engine (seconds of sleep per
  /// work unit at speed 1.0); 0 disables.
  double threaded_seconds_per_unit = 0.0;

  /// Scripted TSW stall/death faults replayed by the sim engine (see
  /// support/fault.hpp and SimEngine docs). Empty: no report deadline, so
  /// no TSW is lost and runs are bit-identical to the goldens.
  fault::WorkerFaultScript faults;

  /// Convenience: set both collection policies at once.
  void set_policy(CollectionPolicy policy, double threshold = 0.5) {
    master_policy = {policy, threshold};
    tsw_policy = {policy, threshold};
  }
};

struct PtsResult {
  double initial_cost = 0.0;
  double best_cost = 0.0;
  double best_quality = 0.0;
  cost::Objectives best_objectives;
  std::vector<netlist::CellId> best_slots;

  /// Virtual (sim) or wall (threaded) seconds from start to final collect.
  double makespan = 0.0;
  /// Global-best improvement trajectory over time; starts at (0, initial).
  Series best_vs_time;
  /// Global best after each global iteration (x = iteration index).
  Series best_vs_global;
  /// Aggregated TSW statistics.
  tabu::SearchStats stats;
  /// Completed unless a caller-supplied stop condition fired first (stop
  /// checks run at global-iteration granularity in both engines).
  StopReason stop_reason = StopReason::Completed;
  /// TSWs the master declared dead (missed their report deadline) and
  /// whose cell ranges were redistributed; 0 on fault-free runs.
  std::size_t workers_lost = 0;

  /// First time the global best reached `cost_threshold` (-1 if never);
  /// the paper's speedup uses t(1, x) / t(n, x) on this quantity.
  double time_to_cost(double cost_threshold) const {
    return best_vs_time.first_x_reaching(cost_threshold);
  }
};

/// `requested` workers clamped to [1, cap], or to 1 when cap is 0. Every
/// parallel engine clamps its worker counts to the movable-cell count: more
/// workers than cells cannot all do useful work.
std::size_t clamp_workers(std::size_t requested, std::size_t cap);

/// The algorithm streams of the TSW/CLW engines: TSW `tsw` samples from
/// tsw_stream and its CLW `clw` from clw_stream. Each is a fork of
/// config.seed salted by the worker's index (1000 + i, 3000 + 64·i + j),
/// not a sequential draw, so a worker gets the same stream whatever the
/// worker count. With shared_tsw_streams every TSW takes TSW 0's salts.
Rng tsw_stream(const PtsConfig& config, std::size_t tsw);
Rng clw_stream(const PtsConfig& config, std::size_t tsw, std::size_t clw);

/// Immutable per-run setup shared by all workers of one search: layout,
/// initial solution, monitored paths, calibrated goals, all taken from
/// cost::make_evaluator_setup seeded with `config.seed`. The stored config
/// has num_tsws / clws_per_tsw clamped to the movable-cell count (and to
/// >= 1): more workers than cells would give some of them empty
/// partition_cells ranges, which sample_move refuses.
struct SearchSetup {
  SearchSetup(const netlist::Netlist& netlist, const PtsConfig& config);

  /// Builds a worker-private evaluator seeded with `slots`.
  std::unique_ptr<cost::Evaluator> make_evaluator(
      const std::vector<netlist::CellId>& slots) const;

  const netlist::Netlist* netlist;
  PtsConfig config;
  std::unique_ptr<const placement::Layout> layout;
  std::vector<netlist::CellId> initial_slots;
  std::shared_ptr<const timing::PathSet> paths;
  cost::FuzzyGoals goals;
  double initial_cost = 0.0;
};

}  // namespace pts::parallel
