// The shared-memory "parallel-shared" backend (DESIGN.md §8) and the
// worker-count clamp it shares with the TSW/CLW engines:
//
//  1. A 1-thread run is bit-identical to the sequential "tabu" engine with
//     the same seed — traces, best cost/slots, and stats alike.
//  2. The cost trajectory is independent of the thread count (the engine's
//     determinism contract is stronger than per-thread-count determinism),
//     and a fixed thread count is trivially deterministic run to run.
//     Both pins hold with the long-term frequency memory off and on, since
//     the memory ranks each level's pooled trials by an adjusted cost.
//  3. Run control behaves like every other engine: pre-cancelled tokens
//     stop before iteration 1, iteration budgets truncate bit-identically,
//     observers see every iteration without perturbing the run.
//  4. Oversubscribed worker counts (workers > movable cells) solve instead
//     of aborting — on this engine and on the two TSW/CLW engines whose
//     partition_cells ranges used to come out empty.
//  5. A level goes to the pool only when each thread gets two full probe
//     batches, so narrow levels run the sequential loop on one thread. The
//     multi-thread pins above therefore run at a compound width that keeps
//     their thread count, and assert it, so they still start pools.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cost/evaluator.hpp"
#include "experiments/workloads.hpp"
#include "parallel/shared_engine.hpp"
#include "solver/solver.hpp"

namespace pts::solver {
namespace {

SolveSpec shared_spec(const netlist::Netlist& nl, std::size_t threads,
                      std::uint64_t seed = 7, std::size_t iterations = 60) {
  SolveSpec spec;
  spec.engine = "parallel-shared";
  spec.netlist = &nl;
  spec.seed = seed;
  spec.tabu.iterations = iterations;
  spec.shared.threads = threads;
  return spec;
}

/// A compound width that keeps up to four threads (64 trials /
/// cost::kMinTrialsPerThread). At the default width 8 the engine runs every
/// paper circuit on one thread and never starts a pool.
constexpr std::size_t kPoolWidth = 64;

SolveSpec pool_spec(const netlist::Netlist& nl, std::size_t threads,
                    std::uint64_t seed = 7, std::size_t iterations = 60) {
  SolveSpec spec = shared_spec(nl, threads, seed, iterations);
  spec.tabu.compound.width = kPoolWidth;
  return spec;
}

parallel::SharedConfig shared_config(const SolveSpec& spec) {
  parallel::SharedConfig config;
  config.params = spec.shared;
  config.tabu = spec.tabu;
  config.cost = spec.cost;
  config.init_seed = spec.seed ^ kInitStreamSalt;
  config.search_seed = spec.seed ^ kSearchStreamSalt;
  return config;
}

/// Frequency-memory modes the thread-count pins run under.
constexpr tabu::LongTermMode kMemoryModes[] = {tabu::LongTermMode::Off,
                                               tabu::LongTermMode::Diversify,
                                               tabu::LongTermMode::Intensify};

/// The threads the engine runs `spec` on.
std::size_t effective_threads(const SolveSpec& spec) {
  return parallel::SharedEngine(*spec.netlist, shared_config(spec))
      .effective_threads();
}

void expect_same_y(const Series& a, const Series& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.y[i], b.y[i]) << "series y diverges at index " << i;
  }
}

void expect_identical_outcome(const SolveResult& a, const SolveResult& b) {
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_quality, b.best_quality);
  EXPECT_EQ(a.best_slots, b.best_slots);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_EQ(a.stats.rejected_tabu, b.stats.rejected_tabu);
  EXPECT_EQ(a.stats.aspirated, b.stats.aspirated);
  EXPECT_EQ(a.stats.trials, b.stats.trials);
  ASSERT_EQ(a.cost_trace.size(), b.cost_trace.size());
  for (std::size_t i = 0; i < a.cost_trace.size(); ++i) {
    EXPECT_EQ(a.cost_trace.x[i], b.cost_trace.x[i]);
    EXPECT_EQ(a.cost_trace.y[i], b.cost_trace.y[i]);
    EXPECT_EQ(a.best_trace.y[i], b.best_trace.y[i]);
  }
  expect_same_y(a.best_vs_time, b.best_vs_time);
}

// -- 1 thread == sequential tabu, bit for bit -------------------------------

TEST(SharedEngine, OneThreadMatchesSequentialTabuBitForBit) {
  for (const char* name : {"highway", "c532"}) {
    for (const tabu::LongTermMode mode : kMemoryModes) {
      SCOPED_TRACE(std::string(name) + " frequency mode " +
                   std::to_string(static_cast<int>(mode)));
      const auto& nl = experiments::circuit(name);
      SolveSpec spec = shared_spec(nl, 1);
      spec.tabu.frequency.mode = mode;
      SolveSpec tabu_spec = spec;
      tabu_spec.engine = "tabu";
      const auto sequential = Solver().solve(tabu_spec);
      const auto shared = Solver().solve(spec);
      expect_identical_outcome(sequential, shared);
    }
  }
}

// -- determinism across runs and thread counts ------------------------------

TEST(SharedEngine, FixedThreadCountIsDeterministic) {
  const auto& nl = experiments::circuit("c532");
  for (std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const SolveSpec spec = pool_spec(nl, threads);
    ASSERT_EQ(effective_threads(spec), threads);
    const auto a = Solver().solve(spec);
    const auto b = Solver().solve(spec);
    expect_identical_outcome(a, b);
  }
}

TEST(SharedEngine, TrajectoryIndependentOfThreadCount) {
  // Stronger than the per-thread-count pin above: sampling happens on the
  // coordinator, probes are state-independent, and the reduction order is
  // fixed, so 2- and 4-thread runs retrace the 1-thread run exactly.
  const auto& nl = experiments::circuit("c532");
  std::vector<double> memory_off_trace;
  for (const tabu::LongTermMode mode : kMemoryModes) {
    SolveSpec one_spec = pool_spec(nl, 1);
    one_spec.tabu.frequency.mode = mode;
    const auto one = Solver().solve(one_spec);
    if (mode == tabu::LongTermMode::Off) {
      memory_off_trace = one.cost_trace.y;
    } else {
      EXPECT_NE(one.cost_trace.y, memory_off_trace)
          << "the memory moved no trajectory, so it pins nothing";
    }
    for (std::size_t threads : {2u, 4u}) {
      SCOPED_TRACE("frequency mode " + std::to_string(static_cast<int>(mode)) +
                   ", " + std::to_string(threads) + " threads");
      SolveSpec spec = one_spec;
      spec.shared.threads = threads;
      ASSERT_EQ(effective_threads(spec), threads);
      const auto many = Solver().solve(spec);
      expect_identical_outcome(one, many);
    }
  }
}

// -- run control ------------------------------------------------------------

TEST(SharedEngine, IterationBudgetTruncatesBitIdentically) {
  const auto& nl = experiments::circuit("highway");
  auto spec = pool_spec(nl, 2, /*seed=*/31, /*iterations=*/80);
  ASSERT_EQ(effective_threads(spec), 2u);
  const auto full = Solver().solve(spec);
  ASSERT_EQ(full.stop_reason, StopReason::Completed);

  spec.stop.max_iterations = 30;
  const auto capped = Solver().solve(spec);
  EXPECT_EQ(capped.stop_reason, StopReason::IterationBudget);
  EXPECT_EQ(capped.iterations, 30u);
  ASSERT_EQ(capped.best_trace.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(capped.best_trace.y[i], full.best_trace.y[i]);
    EXPECT_EQ(capped.cost_trace.y[i], full.cost_trace.y[i]);
  }
}

TEST(SharedEngine, PreCancelledTokenStopsBeforeFirstIteration) {
  const auto& nl = experiments::circuit("highway");
  CancelToken token;
  token.cancel();
  auto spec = pool_spec(nl, 4);
  ASSERT_EQ(effective_threads(spec), 4u);
  spec.stop.cancel = &token;
  const auto result = Solver().solve(spec);
  EXPECT_EQ(result.stop_reason, StopReason::Cancelled);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.best_cost, result.initial_cost);
}

namespace {
class CountingObserver : public Observer {
 public:
  void on_improvement(const Progress& progress) override {
    improvements.push_back(progress.best_cost);
  }
  void on_iteration(const Progress& progress) override {
    iterations = progress.iteration;
    ++iteration_calls;
  }

  std::vector<double> improvements;
  std::size_t iterations = 0;
  std::size_t iteration_calls = 0;
};
}  // namespace

TEST(SharedEngine, ObserverSeesEveryIterationWithoutPerturbing) {
  const auto& nl = experiments::circuit("highway");
  const SolveSpec spec = pool_spec(nl, 2);
  ASSERT_EQ(effective_threads(spec), 2u);
  const auto plain = Solver().solve(spec);

  auto observed_spec = spec;
  CountingObserver observer;
  observed_spec.observer = &observer;
  observed_spec.stop.max_iterations = 1000000;  // engaged, never fires
  const auto observed = Solver().solve(observed_spec);

  expect_identical_outcome(plain, observed);
  EXPECT_EQ(observer.iteration_calls, observed.iterations);
  ASSERT_FALSE(observer.improvements.empty());
  EXPECT_EQ(observer.improvements.back(), observed.best_cost);
}

// -- oversubscription regression (workers > movable cells) ------------------

TEST(SharedEngine, OversubscribedThreadsClampAndSolve) {
  // highway has 56 movable cells; 64 threads must clamp, not abort. The
  // width gives 64 threads two probe batches each, so the movable-cell
  // clamp is the one that binds.
  const auto& nl = experiments::circuit("highway");
  auto spec = shared_spec(nl, 64, /*seed=*/3, /*iterations=*/8);
  spec.tabu.compound.width = 64 * cost::kMinTrialsPerThread;
  ASSERT_EQ(effective_threads(spec), nl.num_movable());
  const auto result = Solver().solve(spec);
  EXPECT_LE(result.best_cost, result.initial_cost);
  EXPECT_EQ(result.iterations, 8u);
  EXPECT_EQ(result.best_slots.size(), nl.num_movable());

  // And the clamped run is still the same search (thread-count invariance).
  spec.shared.threads = 1;
  const auto one = Solver().solve(spec);
  EXPECT_EQ(result.best_cost, one.best_cost);
  EXPECT_EQ(result.best_slots, one.best_slots);
}

// -- the width clamp: two probe batches per thread --------------------------

TEST(SharedEngine, NarrowLevelsRunTheSequentialLoopOnOneThread) {
  // c532 at the default width 8: one probe batch per level, fewer trials
  // than a single thread must get, so four requested threads run one —
  // the sequential loop itself, bit-identical to "tabu".
  const auto& nl = experiments::circuit("c532");
  const SolveSpec spec = shared_spec(nl, 4);
  EXPECT_EQ(effective_threads(spec), 1u);
  EXPECT_EQ(parallel::SharedEngine(nl, shared_config(spec))
                .run(RunControl{spec.stop, nullptr})
                .threads_used,
            1u);
  SolveSpec tabu_spec = spec;
  tabu_spec.engine = "tabu";
  expect_identical_outcome(Solver().solve(tabu_spec), Solver().solve(spec));

  // Threads used for 1..4 requested: at most width / 16, at least 1.
  const std::pair<std::size_t, std::vector<std::size_t>> table[] = {
      {15, {1, 1, 1, 1}}, {16, {1, 1, 1, 1}}, {31, {1, 1, 1, 1}},
      {32, {1, 2, 2, 2}}, {48, {1, 2, 3, 3}},
  };
  for (const auto& [width, expected] : table) {
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      SolveSpec narrow = shared_spec(nl, threads);
      narrow.tabu.compound.width = width;
      EXPECT_EQ(effective_threads(narrow), expected[threads - 1])
          << "width " << width << ", " << threads << " threads requested";
    }
  }
}

TEST(SharedEngine, OversubscribedSimEngineSolves) {
  // partition_cells(n, workers) with workers > n used to hand empty ranges
  // to sample_move, which aborts. Both paper circuits small enough to
  // oversubscribe cheaply.
  for (const char* name : {"highway", "c532"}) {
    SCOPED_TRACE(name);
    const auto& nl = experiments::circuit(name);
    SolveSpec spec = experiments::base_spec(nl, "parallel-sim", /*seed=*/5,
                                            /*quick=*/true);
    spec.parallel.num_tsws = nl.num_movable() + 8;
    spec.parallel.clws_per_tsw = 1;
    spec.parallel.global_iterations = 1;
    spec.parallel.local_iterations = 1;
    const auto result = Solver().solve(spec);
    EXPECT_LE(result.best_cost, result.initial_cost);
    EXPECT_EQ(result.best_slots.size(), nl.num_movable());
  }
}

TEST(SharedEngine, OversubscribedThreadedEngineSolves) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec = experiments::base_spec(nl, "parallel-threaded", /*seed=*/5,
                                          /*quick=*/true);
  spec.parallel.num_tsws = nl.num_movable() + 4;  // 60 > 56 movable
  spec.parallel.clws_per_tsw = 1;
  spec.parallel.global_iterations = 1;
  spec.parallel.local_iterations = 1;
  const auto result = Solver().solve(spec);
  EXPECT_LE(result.best_cost, result.initial_cost);
  EXPECT_EQ(result.best_slots.size(), nl.num_movable());
}

}  // namespace
}  // namespace pts::solver
