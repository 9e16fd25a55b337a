// The built-in engines behind pts::solver::Solver. Each adapter owns
// the full recipe for its engine — setup, seeding, run control, and the
// mapping of the native result type into SolveResult — so a Solver run is
// bit-identical to the equivalent direct engine invocation (pinned by
// tests/solver_test.cpp).
#include <utility>

#include "baselines/annealing.hpp"
#include "baselines/constructive.hpp"
#include "baselines/local_search.hpp"
#include "parallel/shared_engine.hpp"
#include "parallel/sim_engine.hpp"
#include "parallel/threaded_engine.hpp"
#include "solver/solver.hpp"
#include "support/stopwatch.hpp"
#include "tabu/search.hpp"

namespace pts::solver {

namespace detail {

// When warm-starting, the random placement is still built and the goals
// are still calibrated against it — identical RNG consumption and identical
// cost scale to the cold run — and the warm slots are assigned only
// afterwards, which is what keeps the cold path bit-identical and the
// warm/cold costs comparable.
SequentialSetup make_sequential_setup(const SolveSpec& spec) {
  SequentialSetup setup = cost::make_evaluator_setup(
      *spec.netlist, spec.cost, spec.seed ^ kInitStreamSalt);
  if (!spec.initial_slots.empty()) {
    setup.eval->reset_placement(spec.initial_slots);
  }
  return setup;
}

void map_search_result(SolveResult& out, tabu::SearchResult&& r) {
  out.best_cost = r.best_cost;
  out.best_quality = r.best_quality;
  out.best_objectives = r.best_objectives;
  out.best_slots = std::move(r.best_slots);
  out.cost_trace = std::move(r.cost_trace);
  out.best_trace = std::move(r.best_trace);
  out.best_vs_time = std::move(r.best_vs_time);
  out.stats = r.stats;
  out.iterations = r.stats.iterations;
  out.stop_reason = r.stop_reason;
}

}  // namespace detail

namespace {

using detail::SequentialSetup;
using detail::make_sequential_setup;
using detail::map_search_result;

/// Snapshot of the evaluator's current solution into the best_* fields.
void fill_best_from(SolveResult& out, const cost::Evaluator& eval) {
  out.best_cost = eval.cost();
  out.best_quality = eval.quality();
  out.best_objectives = eval.objectives();
  out.best_slots = eval.placement().slots();
}

/// The parallel engines run spec.parallel with the shared seed/cost/tabu
/// blocks overridden — those three are authoritative across every engine.
parallel::PtsConfig effective_parallel_config(const SolveSpec& spec) {
  parallel::PtsConfig config = spec.parallel;
  config.seed = spec.seed;
  config.cost = spec.cost;
  config.tabu = spec.tabu;
  return config;
}

void map_pts_result(SolveResult& out, parallel::PtsResult&& r) {
  out.initial_cost = r.initial_cost;
  out.best_cost = r.best_cost;
  out.best_quality = r.best_quality;
  out.best_objectives = r.best_objectives;
  out.best_slots = std::move(r.best_slots);
  out.best_vs_time = std::move(r.best_vs_time);
  out.best_vs_global = std::move(r.best_vs_global);
  out.stats = r.stats;
  out.iterations = r.stats.iterations;
  out.makespan = r.makespan;
  out.stop_reason = r.stop_reason;
}

/// The most trials one level or local-search iteration may sample, and the
/// most levels one compound move or diversification step may build. A
/// level's buffers hold `width` moves and costs (16 B a trial) and the
/// compound and diversify buffers reserve `depth`, so a value from the wire
/// far past any real search is an allocation that fails on a session
/// thread. The widest level in the tree is about a thousand trials.
constexpr std::size_t kMaxTrials = std::size_t{1} << 20;

void validate_at_most_max_trials(std::size_t value, const char* name,
                                 std::vector<std::string>& errors) {
  if (value > kMaxTrials) {
    errors.push_back(std::string(name) + " must be <= " +
                     std::to_string(kMaxTrials));
  }
}

/// The most worker threads or tasks one spec may ask for: parallel-shared's
/// `shared.threads`, and the TSW/CLW engines' num_tsws * (1 + clws_per_tsw)
/// tasks (parallel-threaded runs each on a thread of its own, parallel-sim
/// keeps an evaluator per TSW and a CLW state per task). The engines clamp
/// counts only to the movable cells, and ptsd serves every engine, so a
/// count from the wire needs a bound of its own. The largest counts in the
/// tree are 806 tasks and 64 threads.
constexpr std::size_t kMaxWorkers = 1024;

void validate_tabu_params(const tabu::TabuParams& params,
                          std::vector<std::string>& errors) {
  if (params.tenure < 1) errors.push_back("tabu.tenure must be >= 1");
  if (params.compound.width < 1) {
    errors.push_back("tabu.compound.width must be >= 1");
  }
  if (params.compound.depth < 1) {
    errors.push_back("tabu.compound.depth must be >= 1");
  }
  validate_at_most_max_trials(params.compound.width, "tabu.compound.width",
                              errors);
  validate_at_most_max_trials(params.compound.depth, "tabu.compound.depth",
                              errors);
}

void validate_parallel(const SolveSpec& spec, std::vector<std::string>& errors);

// ---------------------------------------------------------------------------

class TabuEngine final : public Engine {
 public:
  std::string_view name() const override { return "tabu"; }
  std::string_view description() const override {
    return "sequential tabu search (paper Fig. 1)";
  }

  void validate(const SolveSpec& spec,
                std::vector<std::string>& errors) const override {
    validate_tabu_params(spec.tabu, errors);
    if (spec.tabu.iterations < 1) {
      errors.push_back("tabu.iterations must be >= 1");
    }
  }

  SolveResult solve(const SolveSpec& spec) const override {
    auto setup = make_sequential_setup(spec);
    SolveResult out;
    out.initial_cost = setup.eval->cost();
    tabu::TabuSearch search(*setup.eval, spec.tabu,
                            Rng(spec.seed ^ kSearchStreamSalt));
    const Stopwatch watch;
    auto r = search.run(RunControl{spec.stop, spec.observer});
    out.makespan = watch.seconds();
    map_search_result(out, std::move(r));
    return out;
  }
};

class AnnealEngine final : public Engine {
 public:
  std::string_view name() const override { return "anneal"; }
  std::string_view description() const override {
    return "simulated-annealing baseline (memoryless comparator)";
  }

  void validate(const SolveSpec& spec,
                std::vector<std::string>& errors) const override {
    const auto& p = spec.anneal;
    if (!(p.initial_acceptance > 0.0 && p.initial_acceptance < 1.0)) {
      errors.push_back("anneal.initial_acceptance must be in (0, 1)");
    }
    if (!(p.cooling > 0.0 && p.cooling < 1.0)) {
      errors.push_back("anneal.cooling must be in (0, 1)");
    }
    if (!(p.final_temp_ratio > 0.0 && p.final_temp_ratio < 1.0)) {
      errors.push_back("anneal.final_temp_ratio must be in (0, 1)");
    }
  }

  SolveResult solve(const SolveSpec& spec) const override {
    auto setup = make_sequential_setup(spec);
    SolveResult out;
    out.initial_cost = setup.eval->cost();
    Rng rng(spec.seed ^ kSearchStreamSalt);
    const Stopwatch watch;
    auto r = baselines::anneal(*setup.eval, spec.anneal, rng,
                               RunControl{spec.stop, spec.observer});
    out.makespan = watch.seconds();
    out.best_cost = r.best_cost;
    out.best_quality = r.best_quality;
    out.best_slots = std::move(r.best_slots);
    out.best_trace = std::move(r.best_trace);
    out.best_vs_time = std::move(r.best_vs_time);
    out.iterations = r.moves_tried;
    out.stats.iterations = r.moves_tried;
    out.stats.accepted = r.moves_accepted;
    out.stop_reason = r.stop_reason;
    // The annealer does not track objectives incrementally; measure the
    // best solution once.
    setup.eval->reset_placement(out.best_slots);
    out.best_objectives = setup.eval->objectives();
    return out;
  }
};

class LocalSearchEngine final : public Engine {
 public:
  std::string_view name() const override { return "local"; }
  std::string_view description() const override {
    return "steepest-descent local search baseline";
  }

  void validate(const SolveSpec& spec,
                std::vector<std::string>& errors) const override {
    const auto& p = spec.local;
    if (p.candidates_per_iteration < 1) {
      errors.push_back("local.candidates_per_iteration must be >= 1");
    }
    validate_at_most_max_trials(p.candidates_per_iteration,
                                "local.candidates_per_iteration", errors);
    if (p.patience < 1) errors.push_back("local.patience must be >= 1");
    if (p.max_iterations < 1) {
      errors.push_back("local.max_iterations must be >= 1");
    }
  }

  SolveResult solve(const SolveSpec& spec) const override {
    auto setup = make_sequential_setup(spec);
    SolveResult out;
    out.initial_cost = setup.eval->cost();
    Rng rng(spec.seed ^ kSearchStreamSalt);
    const Stopwatch watch;
    auto r = baselines::local_search(*setup.eval, spec.local, rng,
                                     RunControl{spec.stop, spec.observer});
    out.makespan = watch.seconds();
    out.best_cost = r.best_cost;
    out.best_quality = r.best_quality;
    out.best_slots = std::move(r.best_slots);
    out.best_trace = std::move(r.best_trace);
    out.iterations = r.iterations;
    out.stats.iterations = r.iterations;
    out.converged = r.converged;
    out.stop_reason = r.stop_reason;
    setup.eval->reset_placement(out.best_slots);
    out.best_objectives = setup.eval->objectives();
    return out;
  }
};

class ConstructiveEngine final : public Engine {
 public:
  std::string_view name() const override { return "constructive"; }
  std::string_view description() const override {
    return "connectivity-driven greedy construction (no iterative search)";
  }

  void validate(const SolveSpec& spec,
                std::vector<std::string>& errors) const override {
    if (!spec.initial_slots.empty()) {
      errors.push_back(
          "engine 'constructive' does not support warm start "
          "(initial_slots); greedy construction replaces any seed");
    }
  }

  SolveResult solve(const SolveSpec& spec) const override {
    // Goals are calibrated against the same-seed *random* placement (the
    // paper's initial solution), so initial_cost -> best_cost directly
    // measures what greedy construction buys over random under identical
    // goals.
    auto setup = make_sequential_setup(spec);
    SolveResult out;
    out.initial_cost = setup.eval->cost();
    const Stopwatch watch;
    Rng rng(spec.seed ^ kSearchStreamSalt);
    const auto greedy = baselines::greedy_placement(
        *spec.netlist, setup.eval->placement().layout(), rng);
    setup.eval->reset_placement(greedy.slots());
    out.makespan = watch.seconds();
    fill_best_from(out, *setup.eval);
    // No iterations and no stop checks: construction is one shot.
    return out;
  }
};

class ParallelSimEngine final : public Engine {
 public:
  std::string_view name() const override { return "parallel-sim"; }
  std::string_view description() const override {
    return "TSW/CLW parallel tabu search, deterministic virtual time";
  }

  void validate(const SolveSpec& spec,
                std::vector<std::string>& errors) const override {
    validate_parallel(spec, errors);
  }

  SolveResult solve(const SolveSpec& spec) const override {
    parallel::SimEngine engine(*spec.netlist, effective_parallel_config(spec));
    SolveResult out;
    map_pts_result(out, engine.run(RunControl{spec.stop, spec.observer}));
    return out;
  }
};

class ParallelThreadedEngine final : public Engine {
 public:
  std::string_view name() const override { return "parallel-threaded"; }
  std::string_view description() const override {
    return "TSW/CLW parallel tabu search on the PVM-like threaded runtime";
  }

  void validate(const SolveSpec& spec,
                std::vector<std::string>& errors) const override {
    validate_parallel(spec, errors);
    if (spec.parallel.threaded_seconds_per_unit < 0.0) {
      errors.push_back("parallel.threaded_seconds_per_unit must be >= 0");
    }
  }

  SolveResult solve(const SolveSpec& spec) const override {
    parallel::ThreadedEngine engine(*spec.netlist,
                                    effective_parallel_config(spec));
    SolveResult out;
    map_pts_result(out, engine.run(RunControl{spec.stop, spec.observer}));
    return out;
  }
};

class ParallelSharedEngine final : public Engine {
 public:
  std::string_view name() const override { return "parallel-shared"; }
  std::string_view description() const override {
    return "shared-memory parallel tabu search over the CSR topology";
  }

  void validate(const SolveSpec& spec,
                std::vector<std::string>& errors) const override {
    validate_tabu_params(spec.tabu, errors);
    if (spec.tabu.iterations < 1) {
      errors.push_back("tabu.iterations must be >= 1");
    }
    if (spec.shared.threads < 1) {
      errors.push_back("shared.threads must be >= 1");
    }
    if (spec.shared.threads > kMaxWorkers) {
      errors.push_back("shared.threads must be <= " +
                       std::to_string(kMaxWorkers));
    }
    if (!spec.initial_slots.empty()) {
      errors.push_back(
          "engine 'parallel-shared' does not support warm start "
          "(initial_slots)");
    }
  }

  SolveResult solve(const SolveSpec& spec) const override {
    parallel::SharedConfig config;
    config.params = spec.shared;
    config.tabu = spec.tabu;
    config.cost = spec.cost;
    // The sequential seed salts: a 1-thread run is bit-identical to the
    // "tabu" engine with the same spec.seed (pinned by shared_engine_test).
    config.init_seed = spec.seed ^ kInitStreamSalt;
    config.search_seed = spec.seed ^ kSearchStreamSalt;
    parallel::SharedEngine engine(*spec.netlist, config);
    auto r = engine.run(RunControl{spec.stop, spec.observer});
    SolveResult out;
    out.initial_cost = r.initial_cost;
    map_search_result(out, std::move(r.search));
    out.makespan = r.makespan;
    return out;
  }
};

void validate_parallel(const SolveSpec& spec,
                       std::vector<std::string>& errors) {
  const auto& p = spec.parallel;
  validate_tabu_params(spec.tabu, errors);
  if (!spec.initial_slots.empty()) {
    errors.push_back("engine '" + spec.engine +
                     "' does not support warm start (initial_slots)");
  }
  if (p.num_tsws < 1) errors.push_back("parallel.num_tsws must be >= 1");
  if (p.clws_per_tsw < 1) {
    errors.push_back("parallel.clws_per_tsw must be >= 1");
  }
  // Each factor first, so the product cannot overflow.
  if (p.num_tsws > kMaxWorkers || p.clws_per_tsw > kMaxWorkers ||
      p.num_tsws * (1 + p.clws_per_tsw) > kMaxWorkers) {
    errors.push_back(
        "parallel.num_tsws * (1 + parallel.clws_per_tsw) must be <= " +
        std::to_string(kMaxWorkers));
  }
  if (p.local_iterations < 1) {
    errors.push_back("parallel.local_iterations must be >= 1");
  }
  if (p.global_iterations < 1) {
    errors.push_back("parallel.global_iterations must be >= 1");
  }
  if (p.cluster.size() < 1) {
    errors.push_back("parallel.cluster must have at least one machine");
  }
  if (p.diversify.enabled && p.diversify.width < 1) {
    errors.push_back("parallel.diversify.width must be >= 1");
  }
  validate_at_most_max_trials(p.diversify.width, "parallel.diversify.width",
                              errors);
  validate_at_most_max_trials(p.diversify.depth, "parallel.diversify.depth",
                              errors);
  for (const auto& [label, policy] :
       {std::pair{"master_policy", p.master_policy},
        std::pair{"tsw_policy", p.tsw_policy}}) {
    if (policy.policy == parallel::CollectionPolicy::HalfForce &&
        !(policy.threshold > 0.0 && policy.threshold <= 1.0)) {
      errors.push_back(std::string("parallel.") + label +
                       ".threshold must be in (0, 1]");
    }
  }
  if (!(p.sim.trial_work > 0.0)) {
    errors.push_back("parallel.sim.trial_work must be > 0");
  }
}

}  // namespace

namespace detail {

std::vector<std::unique_ptr<Engine>> make_builtin_engines() {
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<TabuEngine>());
  engines.push_back(std::make_unique<AnnealEngine>());
  engines.push_back(std::make_unique<LocalSearchEngine>());
  engines.push_back(std::make_unique<ConstructiveEngine>());
  engines.push_back(std::make_unique<ParallelSimEngine>());
  engines.push_back(std::make_unique<ParallelThreadedEngine>());
  engines.push_back(std::make_unique<ParallelSharedEngine>());
  return engines;
}

}  // namespace detail
}  // namespace pts::solver
