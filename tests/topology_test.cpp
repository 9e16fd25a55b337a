// CSR topology pins (DESIGN.md §7).
//
// Three layers of guarantees:
//  1. Structure: the flat Topology arrays hold exactly the adjacency the
//     builder calls describe, written out by hand: pads, multi-fanout nets,
//     a cell taking the same net on two pins (self-adjacent), and connect
//     orders that interleave nets and cells. (netlist_test pins the
//     generated circuits' adjacency by hash.)
//  2. Trajectories: tabu and annealing runs are bit-identical to golden
//     values captured from the pre-CSR build — the layout refactor changed
//     memory layout only, never a single floating-point result.
//  3. Allocation: the probe/commit hot loop and the diversification step
//     run allocation-free in steady state (the scratch buffers are
//     reserved up front), and building a circuit allocates a fixed number
//     of arrays, not one per cell or net — both pinned with a counting
//     operator new. The ASan CI job runs this suite too, so the override is
//     exercised under instrumentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "baselines/annealing.hpp"
#include "cost/evaluator.hpp"
#include "netlist/benchmarks.hpp"
#include "tabu/diversify.hpp"
#include "tabu/search.hpp"
#include "timing/paths.hpp"

// -- counting operator new (layer 3) ----------------------------------------

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
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;
using netlist::Topology;

// -- layer 1: the CSR against hand-written adjacency -------------------------

/// Asserts the whole adjacency: every net's pins (driver first, then the
/// sinks in connect order) and every cell's nets_of list.
void expect_adjacency(const Netlist& nl,
                      const std::vector<std::vector<CellId>>& pins_of_net,
                      const std::vector<std::vector<NetId>>& nets_of_cell) {
  const Topology& topo = nl.topology();
  ASSERT_EQ(topo.num_nets(), pins_of_net.size());
  ASSERT_EQ(topo.num_cells(), nets_of_cell.size());
  std::size_t total_pins = 0;
  for (NetId net = 0; net < pins_of_net.size(); ++net) {
    const auto pins = topo.pins(net);
    EXPECT_EQ(std::vector<CellId>(pins.begin(), pins.end()), pins_of_net[net])
        << "net " << net;
    EXPECT_EQ(topo.driver(net), nl.net(net).driver) << "net " << net;
    EXPECT_EQ(topo.net_weight(net), nl.net(net).weight) << "net " << net;
    total_pins += pins_of_net[net].size();
  }
  EXPECT_EQ(topo.num_pins(), total_pins);
  EXPECT_EQ(nl.num_pins(), total_pins);
  for (CellId cell = 0; cell < nets_of_cell.size(); ++cell) {
    const auto& c = nl.cell(cell);
    const auto incident = topo.nets_of(cell);
    EXPECT_EQ(std::vector<NetId>(incident.begin(), incident.end()),
              nets_of_cell[cell])
        << "cell " << cell;
    // The forward on the Netlist accessor is the same storage.
    EXPECT_EQ(nl.nets_of(cell).data(), incident.data());
    // in_nets() is the same list without the out net.
    EXPECT_EQ(topo.out_net(cell), c.out_net);
    const auto inputs = topo.in_nets(cell);
    EXPECT_EQ(inputs.data(), incident.data() + (c.out_net != kNoNet ? 1 : 0));
    EXPECT_EQ(inputs.size(), incident.size() - (c.out_net != kNoNet ? 1 : 0));
    EXPECT_EQ(topo.cell_width(cell), static_cast<double>(c.width));
    EXPECT_EQ(topo.cell_intrinsic_delay(cell), c.intrinsic_delay);
    EXPECT_EQ(topo.cell_load_factor(cell), c.load_factor);
    EXPECT_EQ(topo.cell_movable(cell), c.movable());
  }
}

TEST(TopologyStructure, PadsMultiFanoutAndSelfAdjacentCells) {
  // One of each structural corner: pad pins on both ends, a multi-fanout
  // net, and a gate that takes the same net on two input pins.
  netlist::NetlistBuilder b("corners");
  const CellId a = b.add_primary_input("a");
  const CellId g1 = b.add_gate("g1", 2, 0.8, 0.05);
  const CellId g2 = b.add_gate("g2", 1, 0.6, 0.05);
  const CellId o1 = b.add_primary_output("o1");
  const CellId o2 = b.add_primary_output("o2");
  const NetId na = b.add_net("na", a, 2.0);  // fanout 3: g1 twice + g2
  b.connect_input(na, g1);
  b.connect_input(na, g1);  // self-adjacent: same net on two pins of g1
  b.connect_input(na, g2);
  const NetId n1 = b.add_net("n1", g1);
  b.connect_input(n1, o1);
  const NetId n2 = b.add_net("n2", g2);
  b.connect_input(n2, o2);
  const Netlist nl = std::move(b).build();

  // The duplicate pin is preserved in the pin list (num_pins counts pins,
  // not distinct cells) but deduplicated in the incident-net index; a PI
  // has only its driven net, a PO only its sunk net.
  expect_adjacency(nl, {{a, g1, g1, g2}, {g1, o1}, {g2, o2}},
                   {{na}, {n1, na}, {n2, na}, {n1}, {n2}});
  const Topology& topo = nl.topology();
  EXPECT_TRUE(topo.net_repeats_cell(na));
  EXPECT_FALSE(topo.net_repeats_cell(n1));
  EXPECT_FALSE(topo.net_repeats_cell(n2));
  EXPECT_TRUE(topo.in_nets(a).empty());
  EXPECT_EQ(topo.out_net(o2), kNoNet);
  EXPECT_FALSE(topo.cell_movable(a));
  EXPECT_TRUE(topo.cell_movable(g1));
}

TEST(TopologyStructure, ConnectOrderSurvivesTheCountingSort) {
  // Connections interleave nets and cells, and reach sinks out of id
  // order: pins(net) must list sinks in connect order and nets_of(cell)
  // its inputs in first-seen order, whatever the ids.
  netlist::NetlistBuilder b("interleaved");
  const CellId p = b.add_primary_input("p");
  const CellId q = b.add_primary_input("q");
  const CellId g1 = b.add_gate("g1", 1, 1.0, 0.1);
  const CellId g2 = b.add_gate("g2", 3, 1.5, 0.2);
  const CellId g3 = b.add_gate("g3", 2, 0.5, 0.3);
  const CellId z = b.add_primary_output("z");
  const CellId y = b.add_primary_output("y");
  const NetId nq = b.add_net("nq", q);
  const NetId np = b.add_net("np", p, 0.5);
  b.connect_input(nq, g3);
  b.connect_input(np, g3);
  b.connect_input(np, g1);
  b.connect_input(nq, g1);
  const NetId n1 = b.add_net("n1", g1);
  b.connect_input(n1, g3);
  b.connect_input(nq, g2);
  b.connect_input(n1, g2);
  b.connect_input(nq, g3);  // a repeat, after other nets reached g3
  const NetId n3 = b.add_net("n3", g3);
  const NetId n2 = b.add_net("n2", g2);
  b.connect_input(n3, y);
  b.connect_input(n2, z);
  const Netlist nl = std::move(b).build();

  expect_adjacency(nl,
                   {{q, g3, g1, g2, g3}, {p, g3, g1}, {g1, g3, g2}, {g3, y},
                    {g2, z}},
                   {{np}, {nq}, {n1, np, nq}, {n2, nq, n1}, {n3, nq, np, n1},
                    {n2}, {n3}});
  EXPECT_TRUE(nl.topology().net_repeats_cell(nq));
  EXPECT_FALSE(nl.topology().net_repeats_cell(np));
}

TEST(TopologyStructure, PathSetReverseIndexMatchesPaths) {
  const Netlist nl = netlist::make_benchmark("c532");
  const timing::DelayModel model;
  const auto paths = timing::extract_critical_paths(nl, 24, model);
  // Flat reverse index agrees with a per-net recount over the path lists,
  // in ascending path order.
  std::vector<std::vector<std::uint32_t>> expected(nl.num_nets());
  for (std::uint32_t p = 0; p < paths->size(); ++p) {
    for (NetId net : paths->path(p).nets) expected[net].push_back(p);
  }
  ASSERT_EQ(paths->const_delays().size(), paths->size());
  for (std::uint32_t p = 0; p < paths->size(); ++p) {
    EXPECT_EQ(paths->const_delays()[p], paths->path(p).const_delay);
  }
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    const auto slice = paths->paths_of_net(net);
    ASSERT_EQ(slice.size(), expected[net].size()) << "net " << net;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      EXPECT_EQ(slice[i], expected[net][i]) << "net " << net;
    }
  }
}

// -- layer 2: bit-identical trajectories vs the pre-CSR build ---------------

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

double from_bits(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::uint64_t fnv_slots(const std::vector<CellId>& slots) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const CellId s : slots) {
    h ^= s;
    h *= 1099511628211ULL;
  }
  return h;
}

struct TrajectoryGolden {
  const char* circuit;
  std::uint64_t best_cost_bits;
  std::uint64_t best_quality_bits;
  std::uint64_t slots_fnv;
};

// Captured from the pre-Topology seed build (vector-of-vectors layout) at
// 861f51d with the exact parameters used below. The CSR refactor must not
// move a single bit of any of these.
TEST(TopologyTrajectory, TabuBitIdenticalToPreCsrBuild) {
  constexpr TrajectoryGolden kGolden[] = {
      {"highway", 0x3fc204caaea2cd30ULL, 0x3feadbe0310a67a6ULL,
       0xbed9df5eee3395cfULL},
      {"c532", 0x3fe09c6d50cb7dfeULL, 0x3fdec7255e690405ULL,
       0x0eff1ab1e5d66c38ULL},
  };
  for (const auto& golden : kGolden) {
    SCOPED_TRACE(golden.circuit);
    const Netlist nl = netlist::make_benchmark(golden.circuit);
    const placement::Layout layout(nl);
    auto eval = make_eval(nl, layout, 3);
    tabu::TabuParams params;
    params.iterations = 60;
    tabu::TabuSearch search(*eval, params, Rng(7));
    const auto result = search.run();
    EXPECT_EQ(result.best_cost, from_bits(golden.best_cost_bits));
    EXPECT_EQ(result.best_quality, from_bits(golden.best_quality_bits));
    EXPECT_EQ(fnv_slots(result.best_slots), golden.slots_fnv);
    EXPECT_EQ(result.stats.accepted, 60u);
    EXPECT_EQ(result.stats.rejected_tabu, 0u);
  }
}

TEST(TopologyTrajectory, AnnealBitIdenticalToPreCsrBuild) {
  constexpr TrajectoryGolden kGolden[] = {
      {"highway", 0x3fd053ed5639f934ULL, 0x3fe65d677e998573ULL,
       0xef7149648d9e03a9ULL},
      {"c532", 0x3fda5b2990a8fc98ULL, 0x3fe2d26b37ab81b4ULL,
       0xfc32e9d6cde8ecc8ULL},
  };
  constexpr std::size_t kMovesAccepted[] = {2852, 3596};
  std::size_t index = 0;
  for (const auto& golden : kGolden) {
    SCOPED_TRACE(golden.circuit);
    const Netlist nl = netlist::make_benchmark(golden.circuit);
    const placement::Layout layout(nl);
    auto eval = make_eval(nl, layout, 5);
    baselines::AnnealParams params;
    params.moves_per_temp = 200;
    params.cooling = 0.80;
    Rng rng(9);
    const auto result = baselines::anneal(*eval, params, rng);
    EXPECT_EQ(result.best_cost, from_bits(golden.best_cost_bits));
    EXPECT_EQ(result.best_quality, from_bits(golden.best_quality_bits));
    EXPECT_EQ(fnv_slots(result.best_slots), golden.slots_fnv);
    EXPECT_EQ(result.moves_tried, 6200u);
    EXPECT_EQ(result.moves_accepted, kMovesAccepted[index]);
    ++index;
  }
}

// -- layer 3: zero steady-state allocation ----------------------------------

TEST(TopologyAllocation, ProbeCommitLoopIsAllocationFree) {
  const Netlist nl = netlist::make_benchmark("c532");
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
                                   "state (sink="
                                << sink << ")";
}

TEST(TopologyAllocation, DiversificationReusesItsMoveBuffer) {
  const Netlist nl = netlist::make_benchmark("c532");
  const placement::Layout layout(nl);
  auto eval = make_eval(nl, layout, 23);
  const tabu::CellRange range{0, nl.num_movable()};
  tabu::DiversifyParams params;
  Rng rng(29);

  std::vector<tabu::Move> scratch;
  tabu::diversify(*eval, range, params, rng, &scratch);  // warm-up

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 50; ++i) {
    tabu::diversify(*eval, range, params, rng, &scratch);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "diversification allocated in steady state";
}

TEST(TopologyAllocation, BuildAllocatesPerArrayNotPerObject) {
  // A build allocates whole arrays, never one vector per cell or net, so
  // scale10k (25x c532's gates) may make only a few more allocations than
  // c532: the growth steps of the arrays whose final size the generator
  // can only estimate.
  const auto allocations_of = [](const char* circuit) {
    const std::uint64_t before = g_allocations.load();
    const Netlist nl = netlist::make_benchmark(circuit);
    return g_allocations.load() - before;
  };
  const std::uint64_t small = allocations_of("c532");
  const std::uint64_t large = allocations_of("scale10k");
  EXPECT_LE(large, small + 8) << "c532: " << small << ", scale10k: " << large;
}

}  // namespace
}  // namespace pts
