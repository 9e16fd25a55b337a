// Property-based conformance fuzzing.
//
// The synthetic generator doubles as a fuzzer: ~25 seeded random
// GeneratorConfigs spanning 50–5,000 gates (varied fanin, locality, pad
// counts, cell widths) re-assert on every generated circuit the invariants
// PRs 2–4 pinned by hand on the four paper circuits:
//
//  1. Structure: the CSR Topology's two indexes (net -> pins, cell ->
//     nets) describe one pin graph that agrees with the drivers and out
//     nets of the object model (DESIGN.md §7), and the generator keeps its
//     documented guarantees (exact gate/PI counts, >= requested POs,
//     acyclic).
//  2. Probe/commit: Evaluator::probe_swap is bit-identical to apply_swap
//     along a random committed walk (DESIGN.md §3).
//  3. Incremental HPWL: probe_nets_batch over the overlay's staged moved
//     positions == update_nets after the real swap, delta-for-delta,
//     change-for-change and box-for-box; the running total tracks a
//     from-scratch recompute, and rebuild() lands exactly on the fresh
//     total.
//  4. Timing: PathTimer::peek_delta equals the committed
//     apply_net_change/max_delay sequence bit for bit.
//  5. Batched probing: every probe_batch candidate equals apply_swap, and
//     committing the winner — promoted as the pending last candidate or
//     applied as an earlier one — keeps lockstep with an apply-only twin,
//     also when the pending candidate is the winner's reversed duplicate;
//     three threads probing one Evaluator through their own scratches get
//     its own probe_batch's costs, and leave its pending probe committable.
//  6. Checkpoint/resume equals the uninterrupted run.
//  8. The JSON codec: byte-flipped, truncated and spliced specs, results
//     and checkpoints either decode or return an error, never abort, and
//     an accepted document re-encodes to a fixed point.
//  7. The runner-up probe kernel: probe_nets_batch + commit_probe (x
//     runner-ups advanced incrementally) stays in lockstep with
//     update_nets (everything recomputed), on the fuzz circuits and on a
//     hand-built circuit forcing ties, repeated pins, pads on the edges,
//     shared and multi-moved nets, same- and cross-row swaps; and
//     HpwlState::check_consistent() holds after every Evaluator path that
//     commits or rebuilds.
//
// Everything is exact-equality where the probe/commit contract promises
// bit-identity; the only tolerance is incremental-vs-fresh HPWL *drift*,
// which is bounded but nonzero by design (rebuild_interval caps it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cost/evaluator.hpp"
#include "netlist/generator.hpp"
#include "service/codec.hpp"
#include "solver/checkpoint.hpp"
#include "placement/hpwl.hpp"
#include "placement/overlay.hpp"
#include "placement/placement.hpp"
#include "support/parallel_for.hpp"
#include "support/rng.hpp"
#include "tabu/compound.hpp"
#include "timing/paths.hpp"

namespace pts {
namespace {

using netlist::CellId;
using netlist::GeneratorConfig;
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;
using netlist::Topology;

constexpr int kNumConfigs = 25;

/// Deterministic config family: sizes log-spread across [50, 5000] (the
/// first two pinned to the endpoints), every other knob drawn from the
/// seeded stream so the 25 circuits differ in fanin, locality, pads and
/// width mix.
GeneratorConfig random_config(int index, Rng& rng) {
  GeneratorConfig config;
  config.name = "fuzz" + std::to_string(index);
  if (index == 0) {
    config.num_gates = 50;
  } else if (index == 1) {
    config.num_gates = 5000;
  } else {
    const double log_gates = rng.uniform(std::log(50.0), std::log(5000.0));
    config.num_gates = static_cast<std::size_t>(std::lround(std::exp(log_gates)));
  }
  config.num_primary_inputs = static_cast<std::size_t>(rng.between(2, 40));
  config.num_primary_outputs = static_cast<std::size_t>(rng.between(2, 40));
  config.max_fanin = static_cast<std::size_t>(rng.between(2, 8));
  config.avg_fanin = rng.uniform(1.2, static_cast<double>(config.max_fanin));
  config.locality = rng.uniform(0.0, 0.95);
  config.locality_window = static_cast<std::size_t>(rng.between(4, 64));
  config.min_width = 1;
  config.max_width = static_cast<int>(rng.between(1, 6));
  config.critical_net_fraction = rng.uniform(0.0, 0.3);
  config.seed = 0xF022'0000ULL + static_cast<std::uint64_t>(index);
  return config;
}

std::vector<GeneratorConfig> fuzz_configs() {
  Rng rng(0xFA2'2E5ULL);
  std::vector<GeneratorConfig> configs;
  configs.reserve(kNumConfigs);
  for (int i = 0; i < kNumConfigs; ++i) configs.push_back(random_config(i, rng));
  return configs;
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

// -- property 1: generator guarantees + a consistent CSR adjacency ----------

bool contains(std::span<const NetId> nets, NetId net) {
  return std::find(nets.begin(), nets.end(), net) != nets.end();
}

/// Both CSR indexes describe one pin graph: a net's first pin is its
/// driver, whose out net it is; every pin's cell lists the net in its
/// nets_of; every nets_of entry is a net with a pin on that cell, listed
/// once, the out net first; a net flags a repeated cell exactly when one
/// of its cells has two pins on it; and the SoA copies equal the object
/// fields.
void expect_consistent_topology(const Netlist& nl) {
  const Topology& topo = nl.topology();
  ASSERT_EQ(topo.num_cells(), nl.num_cells());
  ASSERT_EQ(topo.num_nets(), nl.num_nets());

  std::size_t total_pins = 0;
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    const auto& n = nl.net(net);
    const auto pins = topo.pins(net);
    ASSERT_GE(pins.size(), 2u) << "net " << net;
    ASSERT_EQ(pins.front(), n.driver) << "net " << net;
    ASSERT_EQ(nl.cell(n.driver).out_net, net) << "net " << net;
    std::vector<CellId> cells(pins.begin(), pins.end());
    std::sort(cells.begin(), cells.end());
    ASSERT_EQ(topo.net_repeats_cell(net),
              std::adjacent_find(cells.begin(), cells.end()) != cells.end())
        << "net " << net;
    for (const CellId cell : pins) {
      ASSERT_TRUE(contains(topo.nets_of(cell), net))
          << "net " << net << " cell " << cell;
    }
    ASSERT_EQ(topo.net_weight(net), n.weight) << "net " << net;
    total_pins += pins.size();
  }
  ASSERT_EQ(topo.num_pins(), total_pins);

  for (CellId cell = 0; cell < nl.num_cells(); ++cell) {
    const auto& c = nl.cell(cell);
    const auto nets = topo.nets_of(cell);
    ASSERT_EQ(topo.out_net(cell), c.out_net) << "cell " << cell;
    if (c.out_net != kNoNet) {
      ASSERT_EQ(nets.front(), c.out_net) << "cell " << cell;
    }
    for (std::size_t i = 0; i < nets.size(); ++i) {
      ASSERT_FALSE(contains(nets.first(i), nets[i])) << "cell " << cell;
      const auto pins = topo.pins(nets[i]);
      ASSERT_NE(std::find(pins.begin(), pins.end(), cell), pins.end())
          << "cell " << cell << " net " << nets[i];
    }
    ASSERT_EQ(topo.cell_width(cell), static_cast<double>(c.width));
    ASSERT_EQ(topo.cell_intrinsic_delay(cell), c.intrinsic_delay);
    ASSERT_EQ(topo.cell_load_factor(cell), c.load_factor);
    ASSERT_EQ(topo.cell_movable(cell), c.movable());
  }
}

TEST(PropertyFuzz, GeneratorInvariantsAndCsrAdjacency) {
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);

    // Documented generator guarantees (generator.hpp).
    EXPECT_EQ(nl.num_movable(), config.num_gates);
    std::size_t pis = 0, pos = 0;
    for (CellId pad : nl.pad_cells()) {
      (nl.cell(pad).kind == netlist::CellKind::PrimaryInput ? pis : pos) += 1;
    }
    EXPECT_EQ(pis, config.num_primary_inputs);
    EXPECT_GE(pos, config.num_primary_outputs);
    // Acyclic: finalize() would have aborted otherwise; the topological
    // order must cover every cell.
    EXPECT_EQ(nl.topological_order().size(), nl.num_cells());
    EXPECT_GE(nl.logic_depth(), 1u);
    // Fanin stays inside the configured cap. It counts input pins from the
    // sink side, so one net on two pins of a gate counts twice.
    std::vector<std::size_t> input_pins(nl.num_cells(), 0);
    for (NetId net = 0; net < nl.num_nets(); ++net) {
      for (CellId sink : nl.topology().sinks(net)) ++input_pins[sink];
    }
    for (CellId gate : nl.movable_cells()) {
      EXPECT_LE(input_pins[gate], config.max_fanin);
    }

    expect_consistent_topology(nl);
  }
}

// -- property 2: probe_swap == apply_swap bit for bit ------------------------

TEST(PropertyFuzz, ProbeMatchesApplyBitForBit) {
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    auto eval = make_eval(nl, layout, config.seed ^ 0x9e37ULL);

    Rng rng(config.seed ^ 0x517cULL);
    const auto& movable = nl.movable_cells();
    for (int i = 0; i < 60; ++i) {
      const auto [ia, ib] = rng.distinct_pair(movable.size());
      const CellId a = movable[ia];
      const CellId b = movable[ib];
      const double probed = eval->probe_swap(a, b);
      const double applied = eval->apply_swap(a, b);
      ASSERT_EQ(probed, applied) << config.name << " swap " << i;
    }
  }
}

// -- properties 3 + 4: incremental HPWL and peek_delta vs recompute ----------

TEST(PropertyFuzz, IncrementalHpwlAndPeekDeltaMatchRecompute) {
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    Rng init_rng(config.seed ^ 0xB0B0ULL);
    auto placement = placement::Placement::random(nl, layout, init_rng);

    placement::HpwlState hpwl(placement);
    const timing::DelayModel model;
    const auto paths = timing::extract_critical_paths(nl, 24, model);
    timing::PathTimer timer(paths, hpwl, model);
    placement::NetMarker marker(nl.num_nets());
    placement::MovedPositions staged(nl.num_cells());
    placement::ProbedNets probed;
    std::vector<placement::NetChange> probe_changes;
    std::vector<placement::NetChange> apply_changes;
    std::vector<CellId> overlay_moved;
    std::vector<CellId> moved;
    std::vector<double> peek_sums;

    Rng rng(config.seed ^ 0xC4C4ULL);
    const auto& movable = nl.movable_cells();
    for (int i = 0; i < 60; ++i) {
      const auto [ia, ib] = rng.distinct_pair(movable.size());
      const CellId a = movable[ia];
      const CellId b = movable[ib];

      // Stage the would-be positions of the moved cells, the way
      // Evaluator::probe_batch does, and probe the nets they touch.
      const auto py = placement.positions_y();
      overlay_moved.clear();
      const placement::SwapOverlay ov =
          placement::build_swap_overlay(placement, a, b, &overlay_moved);
      marker.begin();
      for (CellId cell : overlay_moved) marker.add_nets_of(nl, cell);
      placement::stage_moved(placement, ov, overlay_moved, &staged);
      const placement::RowMovers movers =
          py[a] != py[b] ? placement::RowMovers{a, b} : placement::RowMovers{};
      probe_changes.clear();
      const double probed_delta = hpwl.probe_nets_batch(
          staged, marker, movers, &probe_changes, &probed);
      const double peeked = timer.peek_delta(probe_changes, peek_sums);

      // Commit the real swap over the same nets; the probe's delta, per-net
      // changes, boxes and peeked delay must equal the committed sequence
      // exactly (the §3 contract).
      moved.clear();
      placement.swap_cells(a, b, &moved);
      ASSERT_EQ(overlay_moved, moved) << "swap " << i;
      apply_changes.clear();
      const double applied_delta = hpwl.update_nets(marker.nets(), &apply_changes);
      for (const auto& change : apply_changes) {
        timer.apply_net_change(change.net, change.old_hpwl, change.new_hpwl);
      }

      ASSERT_EQ(probed_delta, applied_delta) << "swap " << i;
      ASSERT_EQ(probe_changes.size(), apply_changes.size()) << "swap " << i;
      for (std::size_t c = 0; c < probe_changes.size(); ++c) {
        ASSERT_EQ(probe_changes[c].net, apply_changes[c].net);
        ASSERT_EQ(probe_changes[c].old_hpwl, apply_changes[c].old_hpwl);
        ASSERT_EQ(probe_changes[c].new_hpwl, apply_changes[c].new_hpwl);
      }
      ASSERT_GE(probed.states.size(), marker.nets().size()) << "swap " << i;
      for (std::size_t k = 0; k < marker.nets().size(); ++k) {
        const placement::NetBox& box = probed.states[k].box;
        const placement::NetBox& committed = hpwl.net_box(marker.nets()[k]);
        ASSERT_EQ(box.min_x, committed.min_x) << "swap " << i;
        ASSERT_EQ(box.max_x, committed.max_x) << "swap " << i;
        ASSERT_EQ(box.min_y, committed.min_y) << "swap " << i;
        ASSERT_EQ(box.max_y, committed.max_y) << "swap " << i;
      }
      ASSERT_EQ(peeked, timer.max_delay()) << "swap " << i;
    }

    // Incremental total vs from-scratch recompute: drift-bounded while
    // incremental, exact after rebuild().
    const double fresh = hpwl.compute_fresh_total();
    EXPECT_NEAR(hpwl.total(), fresh, 1e-9 * std::max(1.0, std::abs(fresh)));
    hpwl.rebuild();
    EXPECT_EQ(hpwl.total(), hpwl.compute_fresh_total());
  }
}

// -- property 5: probe_batch == apply_swap per candidate, bit for bit --------

bool same_pair(const cost::Move& x, const cost::Move& y) {
  return (x.a == y.a && x.b == y.b) || (x.a == y.b && x.b == y.a);
}

TEST(PropertyFuzz, ProbeBatchMatchesApplyBitForBit) {
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    // Two evaluators seeded identically: one scores through probe_batch and
    // commits through the probe paths; its twin only applies (each
    // candidate applied and undone, then the winner applied). Their
    // committed states must stay bit-identical round after round. The undo
    // restores the twin's checkpoint: a second apply_swap would fold the
    // negated changes into the running sums, where (s + d) - d can land an
    // ulp away from s.
    auto probing = make_eval(nl, layout, config.seed ^ 0xBA7CULL);
    auto applying = make_eval(nl, layout, config.seed ^ 0xBA7CULL);

    // A gate on a pad-driven net, forced into every batch so nets with pad
    // pins (whose fixed positions an overlay must never shift) are always
    // exercised.
    const auto& movable = nl.movable_cells();
    CellId pad_adjacent = netlist::kNoCell;
    for (CellId gate : movable) {
      for (NetId net : nl.topology().nets_of(gate)) {
        if (!nl.cell(nl.topology().driver(net)).movable()) {
          pad_adjacent = gate;
          break;
        }
      }
      if (pad_adjacent != netlist::kNoCell) break;
    }

    Rng rng(config.seed ^ 0x8A7CULL);
    std::vector<cost::Move> moves;
    std::vector<double> costs;
    for (int round = 0; round < 6; ++round) {
      const std::size_t width = static_cast<std::size_t>(rng.between(1, 12));
      moves.clear();
      for (std::size_t w = 0; w < width; ++w) {
        const auto [ia, ib] = rng.distinct_pair(movable.size());
        moves.push_back({movable[ia], movable[ib]});
      }
      if (pad_adjacent != netlist::kNoCell && moves[0].b != pad_adjacent) {
        moves[0].a = pad_adjacent;
      }
      // Overlapping-net candidates: candidates 0 and 1 share a cell, so
      // their marked-net sets intersect.
      if (moves.size() >= 2) {
        moves[1].a = moves[0].a;
        if (moves[1].b == moves[1].a) moves[1].b = moves[0].b;
      }

      costs.assign(moves.size(), 0.0);
      probing->probe_batch(moves, costs);

      // Bit-identity per candidate against the twin's apply + undo; track
      // the first-strict-min winner the way every candidate loop does.
      const cost::Evaluator::CheckpointState committed_state =
          applying->checkpoint();
      std::size_t best = 0;
      for (std::size_t i = 0; i < moves.size(); ++i) {
        const double applied = applying->apply_swap(moves[i].a, moves[i].b);
        applying->restore_checkpoint(committed_state);
        ASSERT_EQ(costs[i], applied)
            << config.name << " round " << round << " candidate " << i;
        if (costs[i] < costs[best]) best = i;
      }

      // Commit the winner through both probe paths. Even rounds re-score it
      // as the last candidate, so commit_probe() promotes the pending
      // probe; odd rounds commit it while another candidate is pending, so
      // commit_swap() falls back to apply_swap().
      const cost::Move winner = moves[best];
      const double winner_cost = costs[best];
      double committed = 0.0;
      if (round % 2 == 0) {
        std::rotate(moves.begin() + static_cast<std::ptrdiff_t>(best),
                    moves.begin() + static_cast<std::ptrdiff_t>(best) + 1,
                    moves.end());
        probing->probe_batch(moves, costs);
        ASSERT_EQ(costs.back(), winner_cost) << config.name << " round " << round;
        committed = probing->commit_probe();
      } else {
        if (same_pair(moves.back(), winner)) {
          const cost::Move decoy =
              same_pair(winner, {movable[0], movable[1]})
                  ? cost::Move{movable[0], movable[2]}
                  : cost::Move{movable[0], movable[1]};
          const std::vector<cost::Move> pending{winner, decoy};
          costs.assign(pending.size(), 0.0);
          probing->probe_batch(pending, costs);
        }
        committed = probing->commit_swap(winner.a, winner.b);
      }
      const double reference = applying->apply_swap(winner.a, winner.b);
      ASSERT_EQ(committed, reference) << config.name << " round " << round;
      ASSERT_EQ(probing->hpwl().total(), applying->hpwl().total());
      ASSERT_TRUE(probing->placement() == applying->placement());
      ASSERT_EQ(probing->checkpoint().wire_sums,
                applying->checkpoint().wire_sums);
    }
  }
}

// A batch of one pair followed by its reversed duplicate, repeated. Both
// orientations usually score the same, so the pair wins the
// first-strict-min tie while a reversed probe is the pending one — on the
// sequential loop's evaluator, on an evaluator that commits the winner
// through Evaluator::commit_swap directly, and in the scratches of a
// TrialPool's threads (parallel-shared's levels) whichever chunks they
// claimed. All three must still
// land on apply_swap(winner) exactly. The two orientations fold the same
// net changes into the path sums in different orders, so promoting the
// pending probe would leave the sums an ulp off wherever that order
// matters. Pairs are drawn from cells on monitored paths, where it most
// often does, and the test asserts that it met such a pair.
TEST(PropertyFuzz, ReversedDuplicateWinnerIsAppliedNotPromoted) {
  std::size_t order_sensitive = 0;
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    // One solution under five evaluators: the sequential loop's, one
    // committed through commit_swap, a parallel-shared coordinator probed
    // by a pool of one thread and one probed by a pool of three, and an
    // apply-only twin.
    const std::uint64_t seed = config.seed ^ 0x2E5EULL;
    auto sequential = make_eval(nl, layout, seed);
    auto swapping = make_eval(nl, layout, seed);
    auto applying = make_eval(nl, layout, seed);
    auto shared_one_eval = make_eval(nl, layout, seed);
    auto shared_three_eval = make_eval(nl, layout, seed);
    tabu::TrialPool pool_one(1, *shared_one_eval);
    tabu::TrialPool pool_three(3, *shared_three_eval);
    const std::pair<tabu::TrialPool*, cost::Evaluator*> coordinators[] = {
        {&pool_one, shared_one_eval.get()},
        {&pool_three, shared_three_eval.get()}};

    const cost::CostParams params;
    const auto paths =
        timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
    std::vector<CellId> on_path;
    for (std::size_t p = 0; p < paths->size(); ++p) {
      for (CellId cell : paths->path(p).cells) {
        if (nl.cell(cell).movable()) on_path.push_back(cell);
      }
    }
    std::sort(on_path.begin(), on_path.end());
    on_path.erase(std::unique(on_path.begin(), on_path.end()), on_path.end());
    const std::vector<CellId>& cells =
        on_path.size() >= 2 ? on_path : nl.movable_cells();

    Rng rng(config.seed ^ 0x5E5EULL);
    std::vector<cost::Move> batch;
    std::vector<double> costs;
    for (int round = 0; round < 24; ++round) {
      const auto [ia, ib] = rng.distinct_pair(cells.size());
      const CellId a = cells[ia];
      const CellId b = cells[ib];

      // The twin's (b, a) sums, to tell whether this pair's order matters.
      const cost::Evaluator::CheckpointState committed_state =
          applying->checkpoint();
      applying->apply_swap(b, a);
      const std::vector<double> reversed_sums = applying->checkpoint().wire_sums;
      applying->restore_checkpoint(committed_state);

      batch.assign(cost::kProbeBatchWidth, cost::Move{b, a});
      batch.front() = cost::Move{a, b};
      double committed = 0.0;
      const std::size_t winner = tabu::commit_best_trial(
          *sequential, batch, /*memory=*/nullptr, /*use_memory=*/false,
          &committed);
      const double reference =
          applying->apply_swap(batch[winner].a, batch[winner].b);
      const std::vector<double> sums = applying->checkpoint().wire_sums;
      if (winner == 0 && sums != reversed_sums) ++order_sensitive;
      ASSERT_EQ(committed, reference) << "round " << round;
      ASSERT_EQ(sequential->hpwl().total(), applying->hpwl().total());
      ASSERT_TRUE(sequential->placement() == applying->placement());
      ASSERT_EQ(sequential->checkpoint().wire_sums, sums) << "round " << round;

      costs.assign(batch.size(), 0.0);
      swapping->probe_batch(batch, costs);
      ASSERT_EQ(tabu::select_best(batch, costs, /*memory=*/nullptr,
                                  /*use_memory=*/false),
                winner);
      ASSERT_EQ(swapping->commit_swap(batch[winner].a, batch[winner].b),
                reference)
          << "round " << round;
      ASSERT_EQ(swapping->hpwl().total(), applying->hpwl().total());
      ASSERT_TRUE(swapping->placement() == applying->placement());
      ASSERT_EQ(swapping->checkpoint().wire_sums, sums) << "round " << round;

      for (const auto& [pool, coordinator] : coordinators) {
        double shared_committed = 0.0;
        ASSERT_EQ(tabu::commit_best_trial(*coordinator, batch,
                                          /*memory=*/nullptr,
                                          /*use_memory=*/false,
                                          &shared_committed, pool),
                  winner);
        ASSERT_EQ(shared_committed, reference) << "round " << round;
        ASSERT_EQ(coordinator->hpwl().total(), applying->hpwl().total());
        ASSERT_TRUE(coordinator->placement() == applying->placement());
        ASSERT_EQ(coordinator->checkpoint().wire_sums, sums)
            << "round " << round;
      }
    }
  }
  EXPECT_GT(order_sensitive, 0u)
      << "no pair whose orientation changes the path sums: the case above "
         "went untested";
}

// Three threads probe one Evaluator at once, each through its own
// ProbeScratch. Every cost must equal, bit for bit, what the evaluator's
// own probe_batch returned for the same batch, and the pending probe the
// evaluator held before the threads ran must still commit to exactly an
// apply-only twin's state. Circuits up to 600 gates only, so the property
// stays seconds-long under TSan.
TEST(PropertyFuzz, ConcurrentScratchProbesMatchOwnProbeBatch) {
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kBatchesPerThread = 4;
  std::size_t circuits = 0;
  for (const GeneratorConfig& config : fuzz_configs()) {
    if (config.num_gates > 600) continue;
    ++circuits;
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    const std::uint64_t seed = config.seed ^ 0xC0C0ULL;
    auto eval = make_eval(nl, layout, seed);
    auto twin = make_eval(nl, layout, seed);
    ThreadPool pool(kThreads);
    std::vector<cost::ProbeScratch> scratches;
    for (std::size_t t = 0; t < kThreads; ++t) scratches.emplace_back(*eval);

    const auto& movable = nl.movable_cells();
    Rng rng(config.seed ^ 0xC1C1ULL);
    const std::size_t num_batches = kThreads * kBatchesPerThread;
    std::vector<std::vector<cost::Move>> batches(num_batches);
    std::vector<std::vector<double>> expected(num_batches);
    std::vector<std::vector<double>> got(num_batches);
    for (int round = 0; round < 8; ++round) {
      for (std::size_t j = 0; j < num_batches; ++j) {
        const auto width = static_cast<std::size_t>(rng.between(1, 12));
        batches[j].clear();
        for (std::size_t w = 0; w < width; ++w) {
          const auto [ia, ib] = rng.distinct_pair(movable.size());
          batches[j].push_back({movable[ia], movable[ib]});
        }
        expected[j].assign(width, 0.0);
        eval->probe_batch(batches[j], expected[j]);
        got[j].assign(width, -1.0);
      }
      const auto [ia, ib] = rng.distinct_pair(movable.size());
      const cost::Move pending{movable[ia], movable[ib]};
      const double pending_cost = eval->probe_swap(pending.a, pending.b);

      const cost::Evaluator& committed_state = *eval;
      pool.run([&](std::size_t t) {
        for (std::size_t k = 0; k < kBatchesPerThread; ++k) {
          const std::size_t j = t * kBatchesPerThread + k;
          committed_state.probe_batch(batches[j], got[j], scratches[t]);
        }
      });
      for (std::size_t j = 0; j < num_batches; ++j) {
        for (std::size_t i = 0; i < got[j].size(); ++i) {
          ASSERT_EQ(got[j][i], expected[j][i])
              << "round " << round << " batch " << j << " candidate " << i;
        }
      }

      const double committed = eval->commit_probe();
      ASSERT_EQ(committed, pending_cost) << "round " << round;
      ASSERT_EQ(committed, twin->apply_swap(pending.a, pending.b))
          << "round " << round;
      ASSERT_EQ(eval->hpwl().total(), twin->hpwl().total());
      ASSERT_TRUE(eval->placement() == twin->placement());
      ASSERT_EQ(eval->checkpoint().wire_sums, twin->checkpoint().wire_sums)
          << "round " << round;
    }
  }
  EXPECT_GE(circuits, 3u);
}

// -- property 7: the runner-up kernel == update_nets, in lockstep ----------

/// What a lockstep walk met, so the forced cases can be asserted.
struct WalkCoverage {
  std::size_t same_row = 0;
  std::size_t cross_row = 0;
  std::size_t shared_net = 0;   ///< swaps where a and b touch one net
  std::size_t multi_moved = 0;  ///< nets touched by two or more moved cells
  std::size_t edge_ties = 0;    ///< probed nets with two cells on an x edge
  std::uint64_t committed = 0;  ///< nets commit_probe installed
  std::uint64_t rescanned = 0;  ///< ... and recomputed from their pins
};

/// Two HpwlStates over identical placements: `kernel` scores every swap
/// with probe_nets_batch and commits it with commit_probe (runner-ups
/// advanced incrementally); `reference` commits the same swap with
/// update_nets (everything recomputed from the pins). Every delta, change,
/// box and total must agree bit for bit, and both states must pass
/// check_consistent() after every swap.
WalkCoverage lockstep_walk(
    const Netlist& nl, const placement::Layout& layout, std::uint64_t seed,
    const std::vector<std::pair<CellId, CellId>>& swaps) {
  Rng init_rng(seed);
  placement::Placement kernel_place =
      placement::Placement::random(nl, layout, init_rng);
  placement::Placement reference_place = kernel_place;
  placement::HpwlState kernel(kernel_place);
  placement::HpwlState reference(reference_place);
  placement::NetMarker marker(nl.num_nets());
  placement::MovedPositions staged(nl.num_cells());
  placement::ProbedNets probed;
  std::vector<placement::NetChange> probe_changes;
  std::vector<placement::NetChange> apply_changes;
  std::vector<CellId> moved;
  WalkCoverage cov;
  const bool failed_before = testing::Test::HasFailure();

  for (std::size_t i = 0; i < swaps.size(); ++i) {
    const auto [a, b] = swaps[i];
    const auto px = kernel_place.positions_x();
    const auto py = kernel_place.positions_y();
    moved.clear();
    const placement::SwapOverlay ov =
        placement::build_swap_overlay(kernel_place, a, b, &moved);
    marker.begin();
    for (CellId cell : moved) marker.add_nets_of(nl, cell);
    placement::stage_moved(kernel_place, ov, moved, &staged);
    const bool cross = py[a] != py[b];
    (cross ? cov.cross_row : cov.same_row) += 1;
    const placement::RowMovers movers =
        cross ? placement::RowMovers{a, b} : placement::RowMovers{};
    const auto nets = marker.nets();
    bool shared = false;
    for (std::size_t k = 0; k < nets.size(); ++k) {
      cov.multi_moved += marker.cell_counts()[k] >= 2 ? 1 : 0;
      const auto pins = nl.topology().pins(nets[k]);
      const bool has_a = std::find(pins.begin(), pins.end(), a) != pins.end();
      const bool has_b = std::find(pins.begin(), pins.end(), b) != pins.end();
      shared = shared || (has_a && has_b);
      const placement::NetBox& box = kernel.net_box(nets[k]);
      std::vector<CellId> on_min, on_max;
      for (CellId c : pins) {
        if (px[c] == box.min_x && std::find(on_min.begin(), on_min.end(), c) ==
                                      on_min.end()) {
          on_min.push_back(c);
        }
        if (px[c] == box.max_x && std::find(on_max.begin(), on_max.end(), c) ==
                                      on_max.end()) {
          on_max.push_back(c);
        }
      }
      cov.edge_ties += (on_min.size() >= 2 || on_max.size() >= 2) ? 1 : 0;
    }
    cov.shared_net += shared ? 1 : 0;

    probe_changes.clear();
    const double delta =
        kernel.probe_nets_batch(staged, marker, movers, &probe_changes, &probed);
    kernel_place.swap_cells(a, b);
    kernel.commit_probe(nets, probed, delta);

    reference_place.swap_cells(a, b);
    apply_changes.clear();
    const double applied = reference.update_nets(nets, &apply_changes);

    EXPECT_EQ(delta, applied) << "swap " << i;
    EXPECT_EQ(kernel.total(), reference.total()) << "swap " << i;
    EXPECT_EQ(probe_changes.size(), apply_changes.size()) << "swap " << i;
    for (std::size_t c = 0;
         c < std::min(probe_changes.size(), apply_changes.size()); ++c) {
      EXPECT_EQ(probe_changes[c].net, apply_changes[c].net);
      EXPECT_EQ(probe_changes[c].old_hpwl, apply_changes[c].old_hpwl);
      EXPECT_EQ(probe_changes[c].new_hpwl, apply_changes[c].new_hpwl);
    }
    for (std::size_t k = 0; k < nets.size(); ++k) {
      const placement::NetBox& box = probed.states[k].box;
      const placement::NetBox& want = reference.net_box(nets[k]);
      EXPECT_EQ(box.min_x, want.min_x) << "swap " << i;
      EXPECT_EQ(box.max_x, want.max_x) << "swap " << i;
      EXPECT_EQ(box.min_y, want.min_y) << "swap " << i;
      EXPECT_EQ(box.max_y, want.max_y) << "swap " << i;
    }
    kernel.check_consistent();
    reference.check_consistent();
    if (!failed_before && testing::Test::HasFailure()) break;
  }
  cov.committed = kernel.committed_nets();
  cov.rescanned = kernel.rescanned_nets();
  return cov;
}

TEST(PropertyFuzz, RunnerUpKernelMatchesUpdateNetsInLockstep) {
  std::uint64_t committed = 0;
  std::uint64_t rescanned = 0;
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    Rng rng(config.seed ^ 0x2A2AULL);
    const auto& movable = nl.movable_cells();
    std::vector<std::pair<CellId, CellId>> swaps;
    for (int i = 0; i < 80; ++i) {
      const auto [ia, ib] = rng.distinct_pair(movable.size());
      swaps.emplace_back(movable[ia], movable[ib]);
    }
    const WalkCoverage cov =
        lockstep_walk(nl, layout, config.seed ^ 0x3B3BULL, swaps);
    committed += cov.committed;
    rescanned += cov.rescanned;
  }
  // Most committed nets advance in O(1). A kernel that silently folded
  // every pin would still be correct, so pin the split as well. (Circuits
  // of one cell width swap only a and b, mostly across rows, and rescan
  // all their nets by design; the mix keeps the total well under half.)
  EXPECT_LT(rescanned * 2, committed);
}

// A hand-built two-row circuit that forces every case the runner-up
// kernel distinguishes, walked over every pair of gates, several times:
//   - g1 sinks the PI net twice and g9 sinks net n3 twice (a cell listed
//     twice on one net);
//   - PI pads hold every min-x edge they sit on, PO pads every max-x edge;
//   - equal-width gates in the same column of the two rows share an x, so
//     edges are often tied between two cells;
//   - nets of two, three and five cells (the record's special cases);
//   - pairs sharing a net, tails moving two cells of one net, and both
//     same-row and cross-row swaps of equal and unequal widths.
TEST(PropertyFuzz, RunnerUpKernelForcedCases) {
  netlist::NetlistBuilder builder("runner_up_cases");
  const CellId p0 = builder.add_primary_input("p0");
  const CellId p1 = builder.add_primary_input("p1");
  const char* names[10] = {"g0", "g1", "g2", "g3", "g4",
                           "g5", "g6", "g7", "g8", "g9"};
  const int widths[10] = {2, 2, 1, 3, 2, 1, 2, 3, 1, 2};
  std::vector<CellId> g;
  for (int i = 0; i < 10; ++i) {
    g.push_back(builder.add_gate(names[i], widths[i], 1.0, 0.1));
  }
  const CellId o0 = builder.add_primary_output("o0");
  const CellId o1 = builder.add_primary_output("o1");
  const auto net = [&](const char* name, CellId driver,
                       std::initializer_list<CellId> sinks) {
    const NetId n = builder.add_net(name, driver);
    for (CellId sink : sinks) builder.connect_input(n, sink);
  };
  net("np0", p0, {g[0], g[1], g[1]});
  net("np1", p1, {g[2], g[5]});
  net("n0", g[0], {g[3], g[4], g[6], g[7]});
  net("n1", g[1], {g[3]});
  net("n2", g[2], {g[4], g[8]});
  net("n3", g[3], {g[5], g[9], g[9]});
  net("n4", g[4], {g[6]});
  net("n5", g[5], {g[7], g[8]});
  net("n6", g[6], {o0});
  net("n7", g[7], {g[9]});
  net("n8", g[8], {g[9]});
  net("n9", g[9], {o1});
  const Netlist nl = std::move(builder).build();
  const placement::Layout layout(nl, /*num_rows=*/2);
  ASSERT_EQ(layout.num_rows(), 2u);

  std::vector<std::pair<CellId, CellId>> swaps;
  Rng rng(0x5EEDULL);
  for (int round = 0; round < 12; ++round) {
    std::vector<std::pair<CellId, CellId>> pairs;
    for (std::size_t i = 0; i < g.size(); ++i) {
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        pairs.emplace_back(g[i], g[j]);
      }
    }
    rng.shuffle(pairs);
    swaps.insert(swaps.end(), pairs.begin(), pairs.end());
  }
  const WalkCoverage cov = lockstep_walk(nl, layout, 0xCA5EULL, swaps);
  EXPECT_GT(cov.same_row, 0u);
  EXPECT_GT(cov.cross_row, 0u);
  EXPECT_GT(cov.shared_net, 0u);
  EXPECT_GT(cov.multi_moved, 0u);
  EXPECT_GT(cov.edge_ties, 0u);
  EXPECT_GT(cov.rescanned, 0u);
  EXPECT_LT(cov.rescanned, cov.committed);
}

// check_consistent() after every Evaluator path that commits or rebuilds:
// commit_probe, commit_swap's promotion and its apply_swap fallback (for a
// reversed pending pair and for a pair not pending at all), apply_swap,
// reset_placement, restore_checkpoint, and the periodic
// rebuild at rebuild_interval 1 and 3 (and the default, which never fires
// here).
TEST(PropertyFuzz, RunnerUpsConsistentAfterEveryCommitPath) {
  const auto configs = fuzz_configs();
  for (std::size_t interval : {std::size_t{1}, std::size_t{3},
                               cost::CostParams{}.rebuild_interval}) {
    for (int k = 0; k < 4; ++k) {
      const GeneratorConfig& config = configs[static_cast<std::size_t>(k)];
      SCOPED_TRACE(testing::Message()
                   << config.name << " rebuild_interval=" << interval);
      const Netlist nl = netlist::generate_circuit(config);
      const placement::Layout layout(nl);
      cost::CostParams params;
      params.rebuild_interval = interval;
      Rng init(config.seed ^ 0x4C4CULL);
      auto p = placement::Placement::random(nl, layout, init);
      const std::vector<CellId> other_slots =
          placement::Placement::random(nl, layout, init).slots();
      auto paths = timing::extract_critical_paths(nl, params.num_paths,
                                                  params.delay_model);
      const auto goals = cost::Evaluator::calibrate_goals(p, *paths, params);
      cost::Evaluator eval(std::move(p), std::move(paths), params, goals);
      eval.hpwl().check_consistent();

      Rng rng(config.seed ^ 0x5D5DULL);
      const auto& movable = nl.movable_cells();
      const auto pair = [&] {
        const auto [ia, ib] = rng.distinct_pair(movable.size());
        return cost::Move{movable[ia], movable[ib]};
      };
      std::vector<double> costs(cost::kProbeBatchWidth);
      for (int step = 0; step < 12; ++step) {
        const cost::Move m1 = pair();
        eval.probe_swap(m1.a, m1.b);
        eval.commit_probe();
        eval.hpwl().check_consistent();

        std::vector<cost::Move> batch;
        for (std::size_t w = 0; w < cost::kProbeBatchWidth; ++w) {
          batch.push_back(pair());
        }
        eval.probe_batch(batch, costs);
        eval.commit_swap(batch.back().a, batch.back().b);  // promotes
        eval.hpwl().check_consistent();

        eval.probe_batch(batch, costs);
        eval.commit_swap(batch.back().b, batch.back().a);  // reversed: applies
        eval.hpwl().check_consistent();

        eval.probe_batch(batch, costs);
        const cost::Move m2 = batch.front();
        if (!same_pair(m2, batch.back())) {
          eval.commit_swap(m2.a, m2.b);  // falls back to apply_swap
          eval.hpwl().check_consistent();
        }

        const cost::Move m3 = pair();
        eval.apply_swap(m3.a, m3.b);
        eval.hpwl().check_consistent();
      }
      const cost::Evaluator::CheckpointState st = eval.checkpoint();
      eval.reset_placement(other_slots);
      eval.hpwl().check_consistent();
      eval.restore_checkpoint(st);
      eval.hpwl().check_consistent();
    }
  }
}

// -- property 6: checkpoint/resume == uninterrupted, on random circuits ------

TEST(PropertyFuzz, ResumedSearchMatchesUninterruptedBitForBit) {
  const auto configs = fuzz_configs();
  // A handful of the smaller circuits: the property is per-iteration state
  // equality, which a big circuit does not make stronger, only slower.
  int tested = 0;
  for (const auto& config : configs) {
    if (config.num_gates > 400 || tested >= 5) continue;
    ++tested;
    const Netlist nl = netlist::generate_circuit(config);

    solver::SolveSpec spec;
    spec.engine = "tabu";
    spec.netlist = &nl;
    spec.seed = config.seed ^ 0xCE50'11ULL;
    spec.tabu.iterations = 70;

    const auto full = solver::solve_with_checkpoint(spec);

    // Interrupt at an arbitrary seeded point, round-trip through JSON,
    // resume, and require the whole-run result to be bit-identical.
    Rng rng(config.seed ^ 0x1D1ULL);
    solver::SolveSpec interrupted = spec;
    interrupted.stop.max_iterations = 1 + rng.below(69);
    const auto half = solver::solve_with_checkpoint(interrupted);

    solver::Checkpoint restored;
    ASSERT_EQ(solver::decode_checkpoint(
                  solver::encode_checkpoint(half.checkpoint), &restored),
              "")
        << config.name;
    const auto resumed = solver::resume_from_checkpoint(spec, restored);

    ASSERT_EQ(resumed.result.best_cost, full.result.best_cost) << config.name;
    ASSERT_EQ(resumed.result.best_slots, full.result.best_slots) << config.name;
    ASSERT_EQ(resumed.result.stats.accepted, full.result.stats.accepted)
        << config.name;
    ASSERT_EQ(resumed.result.stats.trials, full.result.stats.trials)
        << config.name;
    ASSERT_EQ(resumed.checkpoint.eval.slots, full.checkpoint.eval.slots)
        << config.name;
    ASSERT_EQ(resumed.checkpoint.eval.hpwl_total, full.checkpoint.eval.hpwl_total)
        << config.name;
    ASSERT_EQ(resumed.checkpoint.eval.wire_sums, full.checkpoint.eval.wire_sums)
        << config.name;
  }
  ASSERT_GT(tested, 0);
}

// -- property 8: mutated documents decode or fail, never abort ---------------

/// Decodes `text` as a spec (kind 0), result (1) or checkpoint (2). Returns
/// the re-encoding of what it decoded, or nullopt with the error set.
std::optional<std::string> decode_reencode(int kind, const std::string& text,
                                           std::string& error) {
  if (kind == 0) {
    const auto job = service::decode_spec(text, &error);
    if (!job) return std::nullopt;
    return service::encode_spec(*job);
  }
  if (kind == 1) {
    const auto result = service::decode_result(text, &error);
    if (!result) return std::nullopt;
    return service::encode_result(*result);
  }
  solver::Checkpoint ck;
  error = solver::decode_checkpoint(text, &ck);
  if (!error.empty()) return std::nullopt;
  return solver::encode_checkpoint(ck);
}

TEST(PropertyFuzz, MutatedDocumentsDecodeOrErrorAndReencodeToAFixedPoint) {
  const Netlist nl = netlist::generate_circuit(fuzz_configs().front());
  solver::SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;
  spec.seed = 5;
  spec.tabu.iterations = 30;
  spec.stop.max_iterations = 12;
  const auto run = solver::solve_with_checkpoint(spec);
  service::JobRequest job;
  job.circuit = "fuzz";
  job.spec = spec;
  job.spec.initial_slots = run.result.best_slots;
  job.spec.stop.target_cost = 0.25;
  const std::vector<std::string> docs = {
      service::encode_spec(job), service::encode_result(run.result),
      solver::encode_checkpoint(run.checkpoint)};

  // Mutations favour the bytes JSON structure is made of, so many mutants
  // stay well-formed and reach the schema layer.
  const std::string alphabet = "{}[]\",:-+.eE0123456789tfnul\\ ";
  Rng rng(0xF022ULL);
  std::size_t accepted = 0, rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    const int kind = static_cast<int>(rng.below(docs.size()));
    std::string text = docs[static_cast<std::size_t>(kind)];
    switch (rng.below(3)) {
      case 0: {  // flip a few bytes
        const std::size_t flips = 1 + rng.below(4);
        for (std::size_t f = 0; f < flips; ++f) {
          const std::size_t at = rng.below(text.size());
          text[at] = rng.chance(0.8)
                         ? alphabet[rng.below(alphabet.size())]
                         : static_cast<char>(rng.below(256));
        }
        break;
      }
      case 1:  // truncate
        text.resize(rng.below(text.size() + 1));
        break;
      default: {  // splice a slice of any document over a random range
        const std::string& donor = docs[rng.below(docs.size())];
        const std::size_t from = rng.below(donor.size());
        const std::size_t length = rng.below(std::min<std::size_t>(
            64, donor.size() - from) + 1);
        const std::size_t at = rng.below(text.size() + 1);
        const std::size_t cut = rng.below(std::min<std::size_t>(
            64, text.size() - at) + 1);
        text.replace(at, cut, donor.substr(from, length));
        break;
      }
    }
    std::string error;
    const auto again = decode_reencode(kind, text, error);
    if (!again) {
      ASSERT_FALSE(error.empty()) << "round " << round;
      ++rejected;
      continue;
    }
    ++accepted;
    std::string again_error;
    const auto fixed = decode_reencode(kind, *again, again_error);
    ASSERT_TRUE(fixed.has_value()) << "round " << round << ": " << again_error;
    ASSERT_EQ(*fixed, *again) << "round " << round;
  }
  // Both outcomes must actually occur, or the mutations test nothing.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace pts
