// Probe/commit equivalence guard (DESIGN.md §3).
//
// The speculative trial-evaluation layer promises that Evaluator::probe_swap
// returns a cost bit-identical to what apply_swap would have returned
// against the same running totals, and that commit_probe leaves state
// bit-identical to the equivalent apply_swap. Every trial loop in the system
// (compound moves, diversification, both baselines, both parallel engines)
// leans on these two properties for the same-seed determinism guarantee, so
// they are asserted here with exact floating-point equality — no tolerances.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cost/evaluator.hpp"
#include "netlist/benchmarks.hpp"
#include "support/rng.hpp"
#include "tabu/search.hpp"

namespace pts::cost {
namespace {

using netlist::CellId;
using netlist::Netlist;
using placement::Layout;
using placement::Placement;

std::unique_ptr<Evaluator> make_eval(const Netlist& nl, const Layout& layout,
                                     std::uint64_t seed,
                                     const CostParams& params) {
  Rng rng(seed);
  Placement p = Placement::random(nl, layout, rng);
  auto paths =
      timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
  const FuzzyGoals goals = Evaluator::calibrate_goals(p, *paths, params);
  return std::make_unique<Evaluator>(std::move(p), std::move(paths), params,
                                     goals);
}

void expect_same_objectives(const Evaluator& a, const Evaluator& b) {
  const Objectives oa = a.objectives();
  const Objectives ob = b.objectives();
  EXPECT_EQ(oa.wirelength, ob.wirelength);
  EXPECT_EQ(oa.delay, ob.delay);
  EXPECT_EQ(oa.area, ob.area);
}

struct CircuitCase {
  const char* name;
  int swaps;
};

class ProbeEquivalence : public ::testing::TestWithParam<CircuitCase> {};

// probe_swap(a, b) == apply_swap(a, b) bit for bit, along a random walk
// whose committed state keeps evolving (so the running totals the probe is
// measured against carry realistic accumulated drift).
TEST_P(ProbeEquivalence, ProbeMatchesApplyBitForBit) {
  const auto c = GetParam();
  const Netlist nl = netlist::make_benchmark(c.name);
  const Layout layout(nl);
  CostParams params;
  auto eval = make_eval(nl, layout, 17, params);

  Rng rng(29);
  const auto& movable = nl.movable_cells();
  for (int i = 0; i < c.swaps; ++i) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    const CellId a = movable[ia];
    const CellId b = movable[ib];
    const double probed = eval->probe_swap(a, b);
    const double applied = eval->apply_swap(a, b);
    ASSERT_EQ(probed, applied) << c.name << " swap " << i;
  }
}

// Probing must not disturb any observable state, even when many probes run
// back to back without a commit (the compound-move trial loop does exactly
// this, width trials per level).
TEST_P(ProbeEquivalence, RepeatedProbesWithoutCommitLeaveStateUntouched) {
  const auto c = GetParam();
  const Netlist nl = netlist::make_benchmark(c.name);
  const Layout layout(nl);
  CostParams params;
  auto eval = make_eval(nl, layout, 23, params);

  const double cost_before = eval->cost();
  const Objectives obj_before = eval->objectives();
  const std::vector<CellId> slots_before = eval->placement().slots();

  Rng rng(31);
  const auto& movable = nl.movable_cells();
  const int probes = std::min(c.swaps, 256);
  for (int i = 0; i < probes; ++i) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    eval->probe_swap(movable[ia], movable[ib]);
  }

  EXPECT_EQ(eval->cost(), cost_before);
  EXPECT_EQ(eval->objectives().wirelength, obj_before.wirelength);
  EXPECT_EQ(eval->objectives().delay, obj_before.delay);
  EXPECT_EQ(eval->objectives().area, obj_before.area);
  EXPECT_EQ(eval->placement().slots(), slots_before);
  EXPECT_EQ(eval->swaps_applied(), 0u);

  // A probe sequenced after other probes still matches apply exactly.
  const auto [ia, ib] = rng.distinct_pair(movable.size());
  const double probed = eval->probe_swap(movable[ia], movable[ib]);
  EXPECT_EQ(probed, eval->apply_swap(movable[ia], movable[ib]));
}

// Lockstep walk: one evaluator commits probes, its twin applies the same
// swaps directly. Both must stay bit-identical — costs, objectives, slots,
// and bookkeeping — including across periodic-rebuild boundaries (the small
// rebuild_interval forces several rebuilds on both sides).
TEST_P(ProbeEquivalence, CommitProbeMatchesApplyInLockstep) {
  const auto c = GetParam();
  const Netlist nl = netlist::make_benchmark(c.name);
  const Layout layout(nl);
  CostParams params;
  params.rebuild_interval = 64;
  auto committing = make_eval(nl, layout, 41, params);
  auto applying = make_eval(nl, layout, 41, params);

  Rng rng(43);
  const auto& movable = nl.movable_cells();
  const int steps = std::min(c.swaps, 400);
  for (int i = 0; i < steps; ++i) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    const CellId a = movable[ia];
    const CellId b = movable[ib];
    committing->probe_swap(a, b);
    const double via_commit = committing->commit_probe();
    const double via_apply = applying->apply_swap(a, b);
    ASSERT_EQ(via_commit, via_apply) << c.name << " step " << i;
  }
  expect_same_objectives(*committing, *applying);
  EXPECT_EQ(committing->placement().slots(), applying->placement().slots());
  EXPECT_EQ(committing->swaps_applied(), applying->swaps_applied());
}

// commit_swap must promote the pending probe when it is exactly (a, b) and
// fall back to a plain apply otherwise — for a reversed pending pair too —
// all three paths bit-identical to a lockstep twin that only uses
// apply_swap(a, b).
TEST(ProbeEquivalenceCommitSwap, PromotesPendingProbeOrApplies) {
  const Netlist nl = netlist::make_benchmark("c532");
  const Layout layout(nl);
  CostParams params;
  auto committing = make_eval(nl, layout, 71, params);
  auto applying = make_eval(nl, layout, 71, params);

  Rng rng(73);
  const auto& movable = nl.movable_cells();
  for (int i = 0; i < 300; ++i) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    const CellId a = movable[ia];
    const CellId b = movable[ib];
    double via_commit_swap = 0.0;
    double via_apply = 0.0;
    if (i % 3 == 0) {
      committing->probe_swap(a, b);  // pending probe, same orientation
      via_commit_swap = committing->commit_swap(a, b);
      via_apply = applying->apply_swap(a, b);
    } else if (i % 3 == 1) {
      // A reversed pending probe is not promoted: (b, a) folds the same net
      // changes in another order, so commit_swap applies (a, b) itself.
      committing->probe_swap(b, a);
      via_commit_swap = committing->commit_swap(a, b);
      via_apply = applying->apply_swap(a, b);
    } else {
      const auto [ic, id] = rng.distinct_pair(movable.size());
      committing->probe_swap(movable[ic], movable[id]);  // losing trial
      via_commit_swap = committing->commit_swap(a, b);   // must fall back
      via_apply = applying->apply_swap(a, b);
    }
    ASSERT_EQ(via_commit_swap, via_apply) << "step " << i;
  }
  expect_same_objectives(*committing, *applying);
  EXPECT_EQ(committing->placement().slots(), applying->placement().slots());
  EXPECT_EQ(committing->swaps_applied(), applying->swaps_applied());
}

// Pad-heavy nets keep fixed pad pins inside the recomputed boxes; swaps of
// cells incident to pad-connected nets must round-trip just like any other.
TEST_P(ProbeEquivalence, PadConnectedNetsProbeExactly) {
  const auto c = GetParam();
  const Netlist nl = netlist::make_benchmark(c.name);
  const Layout layout(nl);
  CostParams params;
  auto eval = make_eval(nl, layout, 53, params);

  // Movable cells on nets that also touch a pad (PI driver or PO sink).
  std::vector<CellId> pad_adjacent;
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    const auto pins = nl.topology().pins(net);
    const auto is_pad = [&](CellId cell) { return !nl.cell(cell).movable(); };
    if (std::none_of(pins.begin(), pins.end(), is_pad)) continue;
    for (CellId cell : pins) {
      if (!is_pad(cell)) pad_adjacent.push_back(cell);
    }
  }
  ASSERT_GE(pad_adjacent.size(), 2u) << "benchmark lost its pad-adjacent cells";

  Rng rng(59);
  const int swaps = std::min(c.swaps, 500);
  for (int i = 0; i < swaps; ++i) {
    const auto [ia, ib] = rng.distinct_pair(pad_adjacent.size());
    const CellId a = pad_adjacent[ia];
    const CellId b = pad_adjacent[ib];
    if (a == b) continue;  // distinct indices may still alias one cell
    const double probed = eval->probe_swap(a, b);
    ASSERT_EQ(probed, eval->apply_swap(a, b)) << c.name << " pad swap " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, ProbeEquivalence,
                         ::testing::Values(CircuitCase{"highway", 2000},
                                           CircuitCase{"c532", 2000},
                                           CircuitCase{"c1355", 1200},
                                           CircuitCase{"c3540", 800}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The refactored TabuSearch — whose compound-move loop now probes all
// trials and commits only the level winner — must still satisfy the
// same-seed trajectory guarantee end to end.
TEST(ProbeTrajectory, TabuSearchSameSeedTrajectoriesUnchanged) {
  const Netlist nl = netlist::make_benchmark("highway");
  const Layout layout(nl);
  CostParams params;

  tabu::TabuParams tabu_params;
  tabu_params.iterations = 100;
  tabu_params.trace_stride = 1;

  auto run = [&] {
    auto eval = make_eval(nl, layout, 61, params);
    tabu::TabuSearch search(*eval, tabu_params, Rng(67));
    return search.run();
  };
  const tabu::SearchResult r1 = run();
  const tabu::SearchResult r2 = run();

  EXPECT_EQ(r1.best_cost, r2.best_cost);
  EXPECT_EQ(r1.best_slots, r2.best_slots);
  ASSERT_EQ(r1.cost_trace.size(), r2.cost_trace.size());
  for (std::size_t i = 0; i < r1.cost_trace.size(); ++i) {
    ASSERT_EQ(r1.cost_trace.y[i], r2.cost_trace.y[i]) << "iteration " << i;
  }
}

}  // namespace
}  // namespace pts::cost
