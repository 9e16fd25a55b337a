// Unit tests for src/parallel worker state machines, policy math and the
// message protocol.
#include <gtest/gtest.h>

#include "netlist/generator.hpp"
#include "parallel/policy.hpp"
#include "parallel/protocol.hpp"
#include "parallel/worker_logic.hpp"

namespace pts::parallel {
namespace {

using netlist::CellId;
using netlist::GeneratorConfig;
using netlist::Netlist;
using placement::Layout;
using placement::Placement;

Netlist circuit(std::size_t gates = 40, std::uint64_t seed = 5) {
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

// ---------------------------------------------------------------------------
// PolicyParams.

struct PolicyCase {
  CollectionPolicy policy;
  double threshold;
  std::size_t children;
  std::size_t expected;
};

class PolicyMath : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyMath, ReportsBeforeForce) {
  const auto c = GetParam();
  const PolicyParams params{c.policy, c.threshold};
  EXPECT_EQ(params.reports_before_force(c.children), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyMath,
    ::testing::Values(
        PolicyCase{CollectionPolicy::WaitAll, 0.5, 4, 4},
        PolicyCase{CollectionPolicy::WaitAll, 0.5, 1, 1},
        PolicyCase{CollectionPolicy::HalfForce, 0.5, 4, 2},
        PolicyCase{CollectionPolicy::HalfForce, 0.5, 5, 3},   // ceil(2.5)
        PolicyCase{CollectionPolicy::HalfForce, 0.5, 1, 1},
        PolicyCase{CollectionPolicy::HalfForce, 0.25, 8, 2},
        PolicyCase{CollectionPolicy::HalfForce, 0.75, 8, 6},
        PolicyCase{CollectionPolicy::HalfForce, 1.0, 8, 8},
        PolicyCase{CollectionPolicy::HalfForce, 0.0, 8, 1}));  // clamped to 1

// Boundary sweep: threshold * children landing exactly on an integer must
// not gain a spurious ceil bump (the integral product is reachable both
// from exact binary fractions like 0.25 and from products whose FP
// rounding lands on the integer, like 0.1*10 and (1/3)*3); extremes and
// the single-child parent clamp to [1, children].
INSTANTIATE_TEST_SUITE_P(
    Boundary, PolicyMath,
    ::testing::Values(
        // Exactly integral products — no ceil bump.
        PolicyCase{CollectionPolicy::HalfForce, 0.5, 8, 4},
        PolicyCase{CollectionPolicy::HalfForce, 0.25, 4, 1},
        PolicyCase{CollectionPolicy::HalfForce, 0.75, 4, 3},
        PolicyCase{CollectionPolicy::HalfForce, 0.1, 10, 1},   // FP-exact 1.0
        PolicyCase{CollectionPolicy::HalfForce, 1.0 / 3.0, 3, 1},
        PolicyCase{CollectionPolicy::HalfForce, 2.0 / 3.0, 3, 2},
        PolicyCase{CollectionPolicy::HalfForce, 0.3, 10, 3},       // FP-exact 3.0
        PolicyCase{CollectionPolicy::HalfForce, 0.51, 100, 51},    // FP-exact 51.0
        // Genuinely fractional products ceil upward.
        PolicyCase{CollectionPolicy::HalfForce, 1.0 / 3.0, 4, 2},  // ceil(1.33)
        PolicyCase{CollectionPolicy::HalfForce, 0.51, 10, 6},      // ceil(5.1)
        PolicyCase{CollectionPolicy::HalfForce, 0.29, 10, 3},      // ceil(2.9)
        // Documented FP hazard: 0.07*100 rounds to 7.000000000000001, one
        // ulp above the exact-math product, so the ceil lands at 8. Pinned
        // so a future "fix" is a conscious contract change.
        PolicyCase{CollectionPolicy::HalfForce, 0.07, 100, 8},
        // Extremes with a single child and the clamp rails.
        PolicyCase{CollectionPolicy::HalfForce, 0.0, 1, 1},
        PolicyCase{CollectionPolicy::HalfForce, 1.0, 1, 1},
        PolicyCase{CollectionPolicy::HalfForce, 0.5, 2, 1},
        PolicyCase{CollectionPolicy::WaitAll, 0.0, 8, 8}));  // policy ignores it

// ---------------------------------------------------------------------------
// ClwSearch.

TEST(ClwSearchTest, StepCountBounds) {
  const Netlist nl = circuit();
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 7);
  tabu::CompoundParams params;
  params.width = 5;
  params.depth = 3;
  ClwSearch search(tabu::full_range(nl), params);
  Rng rng(3);

  for (int i = 0; i < 10; ++i) {
    search.begin(*eval, rng);
    EXPECT_EQ(search.max_steps(), 15u);
    while (!search.done()) search.step();
    // Steps are a multiple of width (levels complete atomically).
    EXPECT_EQ(search.steps_taken() % params.width, 0u);
    EXPECT_LE(search.steps_taken(), search.max_steps());
    const auto result = search.result();
    EXPECT_EQ(result.swaps.size(), search.steps_taken() / params.width);
    search.abandon();
  }
}

// A CLW investigation is the sequential search's compound move: the same
// draws, the same level winners, the same committed costs bit for bit.
TEST(ClwSearchTest, BuildsTheSequentialCompoundMove) {
  const Netlist nl = circuit();
  const Layout layout(nl);
  auto clw_eval = make_eval(nl, layout, 7);
  auto seq_eval = make_eval(nl, layout, 7);
  tabu::CompoundParams params;
  params.width = 6;
  params.depth = 4;
  const tabu::CellRange range{3, nl.num_movable() - 2};
  ClwSearch search(range, params);
  Rng clw_rng(21);
  Rng seq_rng(21);
  for (int i = 0; i < 10; ++i) {
    search.begin(*clw_eval, clw_rng);
    while (!search.done()) search.step();
    const auto clw = search.result();
    const auto seq =
        tabu::build_compound_move(*seq_eval, range, params, seq_rng);
    EXPECT_EQ(clw.swaps, seq.swaps) << "investigation " << i;
    EXPECT_EQ(clw.cost, seq.cost) << "investigation " << i;
    EXPECT_EQ(clw.improved_early, seq.improved_early);
    search.abandon();
    tabu::undo_compound(*seq_eval, seq);
  }
  EXPECT_EQ(clw_eval->checkpoint().wire_sums, seq_eval->checkpoint().wire_sums);
}

TEST(ClwSearchTest, AbandonRestoresEvaluator) {
  const Netlist nl = circuit();
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 7);
  tabu::CompoundParams params;
  params.width = 4;
  params.depth = 4;
  ClwSearch search(tabu::full_range(nl), params);
  Rng rng(9);
  const double before = eval->cost();
  const auto slots = eval->placement().slots();
  for (int i = 0; i < 5; ++i) {
    search.begin(*eval, rng);
    while (!search.done()) search.step();
    search.abandon();
    EXPECT_EQ(eval->placement().slots(), slots);
    EXPECT_NEAR(eval->cost(), before, 1e-7);
  }
}

TEST(ClwSearchTest, ResultCostMatchesReplay) {
  const Netlist nl = circuit(30, 3);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 5);
  tabu::CompoundParams params;
  params.width = 6;
  params.depth = 3;
  ClwSearch search(tabu::full_range(nl), params);
  Rng rng(1);
  search.begin(*eval, rng);
  while (!search.done()) search.step();
  const auto result = search.result();
  search.abandon();
  // Replaying the reported swaps on the restored evaluator reaches the
  // reported cost.
  for (const auto& swap : result.swaps) eval->apply_swap(swap.a, swap.b);
  EXPECT_NEAR(eval->cost(), result.cost, 1e-7);
}

TEST(ClwSearchTest, PrefixAtStepNeverWorseThanStart) {
  const Netlist nl = circuit(25, 9);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 2);
  tabu::CompoundParams params;
  params.width = 4;
  params.depth = 5;
  params.early_accept = false;  // force full-depth exploration
  ClwSearch search(tabu::full_range(nl), params);
  Rng rng(6);
  search.begin(*eval, rng);
  while (!search.done()) search.step();
  for (std::size_t s = 0; s <= search.steps_taken(); ++s) {
    const auto prefix = search.result_at_step(s);
    EXPECT_LE(prefix.cost, search.start_cost() + 1e-12);
    EXPECT_LE(prefix.swaps.size(), s / params.width);
  }
  // Prefix costs are monotone non-increasing in the cut step.
  double prev = search.result_at_step(0).cost;
  for (std::size_t s = 1; s <= search.steps_taken(); ++s) {
    const double cur = search.result_at_step(s).cost;
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
  search.abandon();
}

TEST(ClwSearchTest, EarlyAcceptStopsAtImprovement) {
  const Netlist nl = circuit(40, 11);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 4);
  tabu::CompoundParams params;
  params.width = 8;
  params.depth = 4;
  ClwSearch search(tabu::full_range(nl), params);
  Rng rng(8);
  int early = 0;
  for (int i = 0; i < 20; ++i) {
    search.begin(*eval, rng);
    while (!search.done()) search.step();
    const auto result = search.result();
    if (result.improved_early) {
      ++early;
      EXPECT_LT(result.cost, search.start_cost());
    }
    search.abandon();
  }
  EXPECT_GT(early, 0);  // random starts leave plenty of improving swaps
}

// ---------------------------------------------------------------------------
// TswState.

TEST(TswStateTest, SelectsLowestCostCandidate) {
  const Netlist nl = circuit(30, 2);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 3);
  tabu::TabuParams tabu_params;
  TswState state(*eval, tabu_params, {}, tabu::full_range(nl), Rng(1));
  state.begin_global_iteration();

  const CellId a = nl.movable_cells()[0];
  const CellId b = nl.movable_cells()[1];
  const CellId c = nl.movable_cells()[2];
  const CellId d = nl.movable_cells()[3];
  std::vector<tabu::CompoundMove> candidates(3);
  candidates[0].swaps = {{a, b}};
  candidates[0].cost = 0.9;
  candidates[1].swaps = {{c, d}};
  candidates[1].cost = 0.4;
  // candidates[2] stays default-constructed: empty (cut before any level).

  const int winner = state.process_candidates(candidates);
  EXPECT_EQ(winner, 1);
  EXPECT_EQ(state.last_applied().size(), 1u);
  EXPECT_TRUE(state.tabu_list().is_tabu({c, d}));
  EXPECT_FALSE(state.tabu_list().is_tabu({a, b}));
}

TEST(TswStateTest, AllEmptyCandidatesRejected) {
  const Netlist nl = circuit(20, 2);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 3);
  TswState state(*eval, {}, {}, tabu::full_range(nl), Rng(1));
  state.begin_global_iteration();
  std::vector<tabu::CompoundMove> candidates(2);
  EXPECT_EQ(state.process_candidates(candidates), -1);
  EXPECT_TRUE(state.last_applied().empty());
}

TEST(TswStateTest, TabuCandidateRejectedWithoutAspiration) {
  const Netlist nl = circuit(20, 4);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 5);
  tabu::TabuParams params;
  params.aspiration = false;
  TswState state(*eval, params, {}, tabu::full_range(nl), Rng(1));
  state.begin_global_iteration();

  const CellId a = nl.movable_cells()[0];
  const CellId b = nl.movable_cells()[1];
  std::vector<tabu::CompoundMove> candidates(1);
  candidates[0].swaps = {{a, b}};
  candidates[0].cost = eval->cost() - 0.01;
  EXPECT_EQ(state.process_candidates(candidates), 0);

  // The same move resubmitted is now tabu and must be rejected.
  candidates[0].cost = eval->cost() - 1.0;  // even a huge gain
  EXPECT_EQ(state.process_candidates(candidates), -1);
  EXPECT_EQ(state.stats().rejected_tabu, 1u);
}

TEST(TswStateTest, AspirationOverridesTabu) {
  const Netlist nl = circuit(20, 4);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 5);
  tabu::TabuParams params;
  params.aspiration = true;
  TswState state(*eval, params, {}, tabu::full_range(nl), Rng(1));
  state.begin_global_iteration();

  const CellId a = nl.movable_cells()[0];
  const CellId b = nl.movable_cells()[1];
  std::vector<tabu::CompoundMove> candidates(1);
  candidates[0].swaps = {{a, b}};
  candidates[0].cost = eval->cost() - 0.01;
  EXPECT_EQ(state.process_candidates(candidates), 0);

  // Tabu but better than the iteration best: aspiration accepts (the swap
  // is an involution, so re-applying it genuinely improves nothing — but
  // the reported candidate cost drives the aspiration test).
  candidates[0].cost = state.iteration_best_cost() - 1.0;
  EXPECT_EQ(state.process_candidates(candidates), 0);
  EXPECT_EQ(state.stats().aspirated, 1u);
}

TEST(TswStateTest, SnapshotsRecordImprovements) {
  const Netlist nl = circuit(40, 6);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 7);
  TswState state(*eval, {}, {}, tabu::full_range(nl), Rng(2));
  state.begin_global_iteration();

  // Manufacture an improving candidate by probing with a real search.
  tabu::CompoundParams cp;
  cp.width = 8;
  cp.depth = 3;
  ClwSearch probe(tabu::full_range(nl), cp);
  Rng rng(3);
  double now = 1.0;
  for (int iter = 0; iter < 10; ++iter) {
    probe.begin(*eval, rng);
    while (!probe.done()) probe.step();
    const auto candidate = probe.result();
    probe.abandon();
    state.process_candidates({candidate});
    state.end_local_iteration(now);
    now += 1.0;
  }
  ASSERT_FALSE(state.snapshots().empty());
  // Snapshot times strictly increase; costs strictly decrease.
  for (std::size_t i = 1; i < state.snapshots().size(); ++i) {
    EXPECT_GT(state.snapshots()[i].time, state.snapshots()[i - 1].time);
    EXPECT_LT(state.snapshots()[i].cost, state.snapshots()[i - 1].cost);
  }
  // snapshot_at honours the cutoff.
  const auto* first = state.snapshot_at(state.snapshots().front().time);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->cost, state.snapshots().front().cost);
  EXPECT_EQ(state.snapshot_at(state.snapshots().front().time - 0.5), nullptr);
  const auto* last = state.snapshot_at(1e18);
  EXPECT_EQ(last->cost, state.snapshots().back().cost);
}

TEST(TswStateTest, AdoptReplacesSolutionAndTabu) {
  const Netlist nl = circuit(25, 8);
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, 9);
  TswState state(*eval, {}, {}, tabu::full_range(nl), Rng(4));

  Rng rng(11);
  const Placement other = Placement::random(nl, layout, rng);
  const std::vector<tabu::Move> tabu_entries{{1, 2}, {3, 4}};
  state.adopt(other.slots(), tabu_entries);
  EXPECT_EQ(eval->placement().slots(), other.slots());
  EXPECT_TRUE(state.tabu_list().is_tabu({1, 2}));
  state.begin_global_iteration();
  EXPECT_NEAR(state.iteration_best_cost(), eval->cost(), 1e-12);
}

// ---------------------------------------------------------------------------
// Protocol round-trips.

TEST(Protocol, ClwReportRoundTrip) {
  ClwReport r;
  r.local_seq = 17;
  r.swaps = {{1, 2}, {3, 4}};
  r.cost = 0.625;
  r.improved_early = true;
  pvm::Message msg = r.encode();
  const ClwReport d = ClwReport::decode(msg);
  EXPECT_EQ(d.local_seq, 17u);
  EXPECT_EQ(d.swaps.size(), 2u);
  EXPECT_TRUE(d.swaps[1] == (tabu::Move{3, 4}));
  EXPECT_DOUBLE_EQ(d.cost, 0.625);
  EXPECT_TRUE(d.improved_early);
}

TEST(Protocol, TswReportRoundTrip) {
  TswReport r;
  r.global_seq = 3;
  r.best_cost = 0.5;
  r.best_slots = {2, 0, 1};
  r.tabu_entries = {{5, 6}};
  r.stat_iterations = 100;
  r.stat_accepted = 80;
  r.stat_rejected_tabu = 15;
  r.stat_aspirated = 5;
  r.stat_early_accepts = 33;
  pvm::Message msg = r.encode();
  const TswReport d = TswReport::decode(msg);
  EXPECT_EQ(d.global_seq, 3u);
  EXPECT_DOUBLE_EQ(d.best_cost, 0.5);
  EXPECT_EQ(d.best_slots, (std::vector<CellId>{2, 0, 1}));
  EXPECT_EQ(d.tabu_entries.size(), 1u);
  EXPECT_EQ(d.stat_accepted, 80u);
  EXPECT_EQ(d.stat_early_accepts, 33u);
}

TEST(Protocol, BroadcastRoundTrip) {
  Broadcast b;
  b.global_seq = 2;
  b.best_slots = {1, 0};
  b.tabu_entries = {{7, 8}, {9, 10}};
  pvm::Message msg = b.encode();
  const Broadcast d = Broadcast::decode(msg);
  EXPECT_EQ(d.global_seq, 2u);
  EXPECT_EQ(d.best_slots, (std::vector<CellId>{1, 0}));
  EXPECT_EQ(d.tabu_entries.size(), 2u);
}

TEST(Protocol, SearchRequestRoundTrip) {
  SearchRequest r;
  r.local_seq = 41;
  r.sync_swaps = {{2, 3}};
  pvm::Message msg = r.encode();
  SearchRequest d = SearchRequest::decode(msg);
  EXPECT_EQ(d.local_seq, 41u);
  EXPECT_EQ(d.sync_swaps.size(), 1u);
  EXPECT_TRUE(d.reset_slots.empty());

  SearchRequest reset;
  reset.local_seq = 42;
  reset.reset_slots = {0, 1, 2};
  pvm::Message msg2 = reset.encode();
  const SearchRequest d2 = SearchRequest::decode(msg2);
  EXPECT_EQ(d2.reset_slots.size(), 3u);
}

TEST(Protocol, InitForceTerminateHelpers) {
  pvm::Message init = make_init({3, 1, 2});
  EXPECT_EQ(init.tag(), kTagInit);
  EXPECT_EQ(decode_init(init), (std::vector<CellId>{3, 1, 2}));

  pvm::Message force = make_force(99);
  EXPECT_EQ(force.tag(), kTagForceReport);
  EXPECT_EQ(decode_force(force), 99u);

  EXPECT_EQ(make_terminate().tag(), kTagTerminate);
}

}  // namespace
}  // namespace pts::parallel
