// Determinism guard: two TabuSearch runs with the same seed must produce
// bit-identical cost trajectories, best costs, and best slot assignments.
// Every future parallel/perf refactor is validated against this invariant.
//
// DeterminismPins: literal results of parallel-sim runs whose CLWs are cut
// mid-investigation (HalfForce over 2 and 4 CLWs) and of long local
// searches, so a change to how a CLW level or a local-search iteration is
// scored and committed must reproduce them bit for bit, not merely agree
// with itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <memory>

#include "cost/evaluator.hpp"
#include "experiments/workloads.hpp"
#include "netlist/generator.hpp"
#include "solver/solver.hpp"
#include "tabu/search.hpp"

namespace pts::tabu {
namespace {

using netlist::GeneratorConfig;
using netlist::Netlist;
using placement::Layout;
using placement::Placement;

Netlist circuit(std::size_t gates = 60, std::uint64_t seed = 11) {
  GeneratorConfig config;
  config.num_gates = gates;
  config.seed = seed;
  return generate_circuit(config);
}

std::unique_ptr<cost::Evaluator> make_eval(const Netlist& nl, const Layout& layout,
                                           std::uint64_t seed) {
  cost::CostParams params;
  Rng rng(seed);
  Placement p = Placement::random(nl, layout, rng);
  auto paths =
      timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
  const auto goals = cost::Evaluator::calibrate_goals(p, *paths, params);
  return std::make_unique<cost::Evaluator>(std::move(p), std::move(paths), params,
                                           goals);
}

SearchResult run_once(const Netlist& nl, std::uint64_t eval_seed,
                      std::uint64_t search_seed, const TabuParams& params) {
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, eval_seed);
  TabuSearch search(*eval, params, Rng(search_seed));
  return search.run();
}

// Exact (bit-level) equality on purpose: any drift, however small, means a
// hidden source of nondeterminism crept into the engine.
void expect_bit_identical(const Series& a, const Series& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << "trace x diverges at index " << i;
    EXPECT_EQ(a.y[i], b.y[i]) << "trace y diverges at index " << i;
  }
}

TEST(DeterminismTest, SameSeedSameTrajectory) {
  const Netlist nl = circuit();
  TabuParams params;
  params.iterations = 120;
  params.trace_stride = 1;

  const SearchResult r1 = run_once(nl, 3, 7, params);
  const SearchResult r2 = run_once(nl, 3, 7, params);

  EXPECT_EQ(r1.best_cost, r2.best_cost);
  EXPECT_EQ(r1.best_quality, r2.best_quality);
  EXPECT_EQ(r1.best_slots, r2.best_slots);
  expect_bit_identical(r1.cost_trace, r2.cost_trace);
  expect_bit_identical(r1.best_trace, r2.best_trace);
  EXPECT_EQ(r1.stats.accepted, r2.stats.accepted);
  EXPECT_EQ(r1.stats.rejected_tabu, r2.stats.rejected_tabu);
  EXPECT_EQ(r1.stats.aspirated, r2.stats.aspirated);
}

TEST(DeterminismTest, DifferentSearchSeedsDiverge) {
  // Sanity check that the guard above is not vacuous: different search
  // seeds should explore different trajectories on a non-trivial circuit.
  const Netlist nl = circuit();
  TabuParams params;
  params.iterations = 120;
  params.trace_stride = 1;

  const SearchResult r1 = run_once(nl, 3, 7, params);
  const SearchResult r2 = run_once(nl, 3, 8, params);

  bool diverged = r1.cost_trace.size() != r2.cost_trace.size();
  for (std::size_t i = 0; !diverged && i < r1.cost_trace.size(); ++i) {
    diverged = r1.cost_trace.y[i] != r2.cost_trace.y[i];
  }
  EXPECT_TRUE(diverged) << "distinct seeds produced identical trajectories";
}

TEST(DeterminismTest, FrequencyMemoryRunsAreAlsoDeterministic) {
  // The long-term frequency memory path has its own bookkeeping; make sure
  // it is covered by the same-seed guarantee too.
  const Netlist nl = circuit(40, 13);
  TabuParams params;
  params.iterations = 80;
  params.trace_stride = 1;
  params.frequency.mode = LongTermMode::Diversify;

  const SearchResult r1 = run_once(nl, 5, 9, params);
  const SearchResult r2 = run_once(nl, 5, 9, params);

  EXPECT_EQ(r1.best_cost, r2.best_cost);
  EXPECT_EQ(r1.best_slots, r2.best_slots);
  expect_bit_identical(r1.cost_trace, r2.cost_trace);
}

std::uint64_t bits_of(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::uint64_t fnv1a_slots(const std::vector<netlist::CellId>& slots) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const netlist::CellId s : slots) {
    h ^= s;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct RunPin {
  const char* circuit;
  std::size_t clws_per_tsw;  ///< parallel-sim only
  std::uint64_t seed;
  std::uint64_t best_cost_bits;
  std::uint64_t makespan_bits;  ///< parallel-sim only: virtual seconds
  std::uint64_t slots_fnv;
  std::size_t iterations;
};

void expect_pinned(const RunPin& pin, const solver::SolveResult& r,
                   bool check_makespan) {
  const bool same = bits_of(r.best_cost) == pin.best_cost_bits &&
                    (!check_makespan ||
                     bits_of(r.makespan) == pin.makespan_bits) &&
                    fnv1a_slots(r.best_slots) == pin.slots_fnv &&
                    r.iterations == pin.iterations;
  EXPECT_TRUE(same) << "{\"" << pin.circuit << "\", " << pin.clws_per_tsw << ", " << pin.seed
                    << std::hex << ", 0x" << bits_of(r.best_cost) << "ULL, 0x"
                    << (check_makespan ? bits_of(r.makespan) : 0)
                    << "ULL, 0x" << fnv1a_slots(r.best_slots) << "ULL, "
                    << std::dec << r.iterations << "},";
}

// Captured before ClwSearch ran a level per step and local search scored
// through the batched trial helper: both changes must leave these bits.
TEST(DeterminismPins, ParallelSimWithCutClws) {
  constexpr RunPin kPins[] = {
      {"c532", 2, 1, 0x3fe1afc291b07e87ULL, 0x4079225d60a5f508ULL,
       0xfda1fa3acbe383c0ULL, 96},
      {"c532", 2, 2, 0x3fe1d744fb56a48aULL, 0x4078fd3940c91b29ULL,
       0x3db854e5ac504888ULL, 96},
      {"c532", 4, 1, 0x3fe11c265c100e00ULL, 0x4081fef6f873b82bULL,
       0xf02dcb374f9dbfeaULL, 96},
      {"c532", 4, 2, 0x3fe0c6fcbdaea442ULL, 0x4081f6cce62b9e2eULL,
       0x84d9646aa9acc15aULL, 96},
      {"c1355", 2, 1, 0x3fe47d32fe98c069ULL, 0x40791f8867bd3ce3ULL,
       0xf1faf8f313aac7d1ULL, 96},
      {"c1355", 2, 2, 0x3fe5f1df7bb0ef2cULL, 0x4078f327651c8974ULL,
       0xd886bced43014df5ULL, 96},
      {"c1355", 4, 1, 0x3fe40f3dc46c0bf3ULL, 0x4081ffa25c7ea168ULL,
       0x12798a46f002193bULL, 96},
      {"c1355", 4, 2, 0x3fe4e8f59fc91511ULL, 0x4081f6fa9af9c384ULL,
       0x242c6d05e1df7261ULL, 96},
  };
  for (const RunPin& pin : kPins) {
    SCOPED_TRACE(pin.circuit);
    solver::SolveSpec spec = experiments::base_spec(
        experiments::circuit(pin.circuit), "parallel-sim", pin.seed);
    spec.parallel.clws_per_tsw = pin.clws_per_tsw;
    spec.parallel.set_policy(parallel::CollectionPolicy::HalfForce, 0.5);
    expect_pinned(pin, solver::Solver().solve(spec), true);
  }
}

TEST(DeterminismPins, LongLocalSearch) {
  constexpr RunPin kPins[] = {
      {"c532", 0, 1, 0x3fc4be4548de8158ULL, 0, 0x13f8057c539c6fb6ULL, 5000},
      {"c532", 0, 2, 0x3fd2995a51032fccULL, 0, 0x444a724679922626ULL, 5000},
  };
  for (const RunPin& pin : kPins) {
    solver::SolveSpec spec = experiments::base_spec(
        experiments::circuit(pin.circuit), "local", pin.seed);
    spec.local.max_iterations = 5000;
    spec.local.patience = 400;
    expect_pinned(pin, solver::Solver().solve(spec), false);
  }
}

}  // namespace
}  // namespace pts::tabu
