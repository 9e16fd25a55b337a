// Scale tier (`stress` CTest label): the invariants that matter at 50k
// gates — 15x the paper's largest circuit.
//
//  1. scale50k builds in O(n) work and stays circuit-like: exact gate/pad
//     counts, sublinear logic depth, paper-range fanin and net degree (the
//     DESIGN.md §2 statistics contract for the scale families).
//  2. Every engine completes a short run on it through the solver front
//     door and never reports a best worse than the start.
//  3. The probe/commit hot loop, the diversification step and compound
//     levels (sequential, and parallel-shared at one and three threads)
//     stay allocation-free in steady state at scale (same
//     counting-operator-new guard topology_test pins at c532 — scratch
//     sizing that silently assumed paper-sized circuits would fail here).
//
// Budgets are deliberately tiny: the tier proves "correct and fast at
// scale", not converged quality, and it must stay seconds-long even in
// Debug/ASan CI runs. The Release-only `stress` CI job runs exactly this
// label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cost/evaluator.hpp"
#include "experiments/workloads.hpp"
#include "netlist/analysis.hpp"
#include "netlist/benchmarks.hpp"
#include "solver/solver.hpp"
#include "tabu/compound.hpp"
#include "tabu/diversify.hpp"

// -- counting operator new (shared convention with topology_test) -----------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pts {
namespace {

using netlist::CellId;
using netlist::Netlist;

/// One 50k-gate circuit per process (generation is fast, but every test
/// here needs it).
const Netlist& scale50k() {
  static const Netlist nl = netlist::make_benchmark("scale50k");
  return nl;
}

std::unique_ptr<cost::Evaluator> make_eval(const Netlist& nl,
                                           const placement::Layout& layout,
                                           std::uint64_t seed) {
  cost::CostParams params;
  Rng rng(seed);
  auto p = placement::Placement::random(nl, layout, rng);
  auto paths =
      timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
  const auto goals = cost::Evaluator::calibrate_goals(p, *paths, params);
  return std::make_unique<cost::Evaluator>(std::move(p), std::move(paths), params,
                                           goals);
}

TEST(Stress, Scale50kBuildsAndStaysCircuitLike) {
  const Netlist& nl = scale50k();
  const auto& info = netlist::scale_benchmarks()[1];
  ASSERT_EQ(info.name, "scale50k");
  EXPECT_EQ(nl.num_movable(), info.cells);
  EXPECT_EQ(nl.topological_order().size(), nl.num_cells());

  const netlist::CircuitStats stats = netlist::analyze_circuit(nl);
  EXPECT_EQ(stats.primary_inputs, info.primary_inputs);
  EXPECT_GE(stats.primary_outputs, info.primary_outputs);
  // The §2 statistics contract: fanin and net degree in the paper
  // circuits' ranges, logic depth sublinear in the gate count (the widened
  // locality window; a fixed 24-net window would put depth in the
  // thousands here).
  EXPECT_GE(stats.gate_fanin.mean, 1.5);
  EXPECT_LE(stats.gate_fanin.mean, 3.5);
  EXPECT_GE(stats.avg_pins_per_net, 2.0);
  EXPECT_LE(stats.avg_pins_per_net, 5.0);
  EXPECT_GE(nl.logic_depth(), 50u);
  EXPECT_LE(nl.logic_depth(), nl.num_movable() / 20);
}

TEST(Stress, AllEnginesCompleteShortRunsAt50k) {
  const Netlist& nl = scale50k();
  for (const char* engine :
       {"tabu", "anneal", "local", "parallel-sim", "parallel-shared"}) {
    SCOPED_TRACE(engine);
    solver::SolveSpec spec = experiments::base_spec(nl, engine, /*seed=*/3,
                                                    /*quick=*/true);
    spec.tabu.iterations = 4;
    spec.tabu.trace_stride = 0;
    spec.anneal.moves_per_temp = 200;
    spec.anneal.cooling = 0.5;
    spec.anneal.trace_stride = 0;
    spec.local.max_iterations = 20;
    spec.local.trace_stride = 0;
    spec.parallel.global_iterations = 2;
    spec.parallel.local_iterations = 2;
    spec.shared.threads = 8;

    const solver::SolveResult result = solver::Solver().solve(spec);
    EXPECT_LE(result.best_cost, result.initial_cost);
    EXPECT_GT(result.iterations, 0u);
    EXPECT_EQ(result.best_slots.size(), nl.num_movable());
  }
}

TEST(Stress, ProbeCommitLoopIsAllocationFreeAt50k) {
  const Netlist& nl = scale50k();
  const placement::Layout layout(nl);
  auto eval = make_eval(nl, layout, 17);
  const auto& movable = nl.movable_cells();
  Rng rng(19);

  // Warm-up: exercise every scratch path (probe, commit, apply) so all
  // buffers reach their high-water mark.
  for (int i = 0; i < 200; ++i) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    eval->probe_swap(movable[ia], movable[ib]);
    if (i % 3 == 0) eval->commit_probe();
    if (i % 7 == 0) eval->apply_swap(movable[ia], movable[ib]);
  }

  const std::uint64_t before = g_allocations.load();
  double sink = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    sink += eval->probe_swap(movable[ia], movable[ib]);
    if (i % 3 == 0) sink += eval->commit_probe();
    if (i % 7 == 0) sink += eval->apply_swap(movable[ia], movable[ib]);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "probe/commit/apply allocated in steady "
                                   "state at 50k gates (sink="
                                << sink << ")";
}

TEST(Stress, DiversifyAndCompoundBuffersAllocationFreeAt50k) {
  const Netlist& nl = scale50k();
  const placement::Layout layout(nl);
  auto eval = make_eval(nl, layout, 23);
  const tabu::CellRange range{0, nl.num_movable()};
  tabu::DiversifyParams div_params;
  tabu::CompoundParams comp_params;
  Rng rng(29);
  // parallel-shared's compound levels at one and three threads: one
  // parallel region per level, probing through per-thread scratch.
  tabu::TrialPool pool_one(1, *eval);
  tabu::TrialPool pool_three(3, *eval);

  std::vector<tabu::Move> div_scratch;
  tabu::CompoundMove comp_scratch;
  const auto round = [&] {
    tabu::diversify(*eval, range, div_params, rng, &div_scratch);
    tabu::build_compound_move(*eval, range, comp_params, rng, nullptr,
                              &comp_scratch);
    tabu::build_compound_move(*eval, range, comp_params, rng, nullptr,
                              &comp_scratch, &pool_one);
    tabu::build_compound_move(*eval, range, comp_params, rng, nullptr,
                              &comp_scratch, &pool_three);
  };
  round();  // warm-up

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 25; ++i) round();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "diversify/compound allocated in steady state at 50k gates";
}

}  // namespace
}  // namespace pts
