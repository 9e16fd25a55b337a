// Unit tests for src/timing: exact STA and the K-paths incremental
// estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "netlist/benchmarks.hpp"
#include "netlist/generator.hpp"
#include "placement/hpwl.hpp"
#include "timing/paths.hpp"
#include "timing/slack.hpp"
#include "timing/sta.hpp"

namespace pts::timing {
namespace {

using netlist::CellId;
using netlist::GeneratorConfig;
using netlist::Netlist;
using netlist::NetId;
using placement::HpwlState;
using placement::Layout;
using placement::Placement;

/// pi -> g1 -> g2 -> po chain with known delays.
Netlist chain() {
  netlist::NetlistBuilder b("chain");
  const CellId pi = b.add_primary_input("a");
  const CellId g1 = b.add_gate("g1", 1, 1.0, 0.5);
  const CellId g2 = b.add_gate("g2", 1, 2.0, 0.25);
  const CellId po = b.add_primary_output("z");
  const NetId n0 = b.add_net("n0", pi);
  b.connect_input(n0, g1);
  const NetId n1 = b.add_net("n1", g1);
  b.connect_input(n1, g2);
  const NetId n2 = b.add_net("n2", g2);
  b.connect_input(n2, po);
  return std::move(b).build();
}

TEST(DelayModel, CellDelayIncludesLoad) {
  const Netlist nl = chain();
  const DelayModel model;
  const CellId g1 = *nl.find_cell("g1");
  // g1 drives n1 with one sink: 1.0 + 0.5 * 1.
  EXPECT_NEAR(model.cell_delay(nl, g1), 1.5, 1e-12);
  // Pads contribute nothing.
  EXPECT_EQ(model.cell_delay(nl, *nl.find_cell("a")), 0.0);
}

TEST(Sta, UniformChainDelayIsHandComputable) {
  const Netlist nl = chain();
  DelayModel model;
  const StaResult sta = run_sta_uniform(nl, /*uniform_net_delay=*/2.0, model);
  // arrival(g1) = 0 + 2 + (1 + .5) = 3.5
  // arrival(g2) = 3.5 + 2 + (2 + .25) = 7.75
  // arrival(z)  = 7.75 + 2 + 0 = 9.75
  EXPECT_NEAR(sta.critical_delay, 9.75, 1e-12);
  ASSERT_EQ(sta.critical_path.size(), 4u);
  EXPECT_EQ(nl.cell(sta.critical_path.front()).kind,
            netlist::CellKind::PrimaryInput);
  EXPECT_EQ(nl.cell(sta.critical_path.back()).kind,
            netlist::CellKind::PrimaryOutput);
}

TEST(Sta, PlacementAwareDelayUsesHpwl) {
  const Netlist nl = chain();
  const Layout layout(nl, 1);
  const Placement p(nl, layout);
  HpwlState hpwl(p);
  DelayModel model;
  model.wire_delay_per_unit = 0.1;
  const StaResult sta = run_sta(nl, hpwl, model);
  const double expected = 0.1 * hpwl.net_hpwl(0) + 1.5 + 0.1 * hpwl.net_hpwl(1) +
                          2.25 + 0.1 * hpwl.net_hpwl(2);
  EXPECT_NEAR(sta.critical_delay, expected, 1e-12);
}

TEST(Sta, CriticalPathEdgesAreReal) {
  GeneratorConfig config;
  config.num_gates = 120;
  config.seed = 3;
  const Netlist nl = generate_circuit(config);
  const DelayModel model;
  const StaResult sta = run_sta_uniform(nl, 1.0, model);
  ASSERT_GE(sta.critical_path.size(), 2u);
  // Consecutive path cells must be driver -> sink of some net.
  for (std::size_t i = 0; i + 1 < sta.critical_path.size(); ++i) {
    const CellId from = sta.critical_path[i];
    const CellId to = sta.critical_path[i + 1];
    const NetId out = nl.cell(from).out_net;
    ASSERT_NE(out, netlist::kNoNet);
    const auto sinks = nl.topology().sinks(out);
    EXPECT_NE(std::find(sinks.begin(), sinks.end(), to), sinks.end());
  }
}

TEST(Paths, ExtractsAtMostKPathsSortedByCriticality) {
  GeneratorConfig config;
  config.num_gates = 200;
  config.num_primary_outputs = 12;
  config.seed = 7;
  const Netlist nl = generate_circuit(config);
  const DelayModel model;
  const auto paths = extract_critical_paths(nl, 6, model);
  EXPECT_LE(paths->size(), 6u);
  EXPECT_GE(paths->size(), 1u);
  for (std::size_t i = 0; i < paths->size(); ++i) {
    const auto& path = paths->path(i);
    EXPECT_EQ(path.cells.size(), path.nets.size() + 1);
    EXPECT_GT(path.const_delay, 0.0);
    // Path endpoints: PI to PO.
    EXPECT_EQ(nl.cell(path.cells.front()).kind, netlist::CellKind::PrimaryInput);
    EXPECT_EQ(nl.cell(path.cells.back()).kind, netlist::CellKind::PrimaryOutput);
    // Edges are consistent: nets[i] connects cells[i] -> cells[i+1].
    for (std::size_t e = 0; e < path.nets.size(); ++e) {
      EXPECT_EQ(nl.net(path.nets[e]).driver, path.cells[e]);
    }
  }
}

TEST(Paths, CountMatchesExtractionWithoutRunningIt) {
  // critical_path_count is what checkpoint validation holds wire sums
  // against, so it must agree with the extraction on both sides of the
  // primary-output count.
  for (const std::size_t outputs : {1u, 5u, 12u}) {
    GeneratorConfig config;
    config.num_gates = 120;
    config.num_primary_outputs = outputs;
    config.seed = 11 + outputs;
    const Netlist nl = generate_circuit(config);
    const DelayModel model;
    for (const std::size_t k : {1u, 4u, 24u}) {
      SCOPED_TRACE("outputs " + std::to_string(outputs) + " k " +
                   std::to_string(k));
      EXPECT_EQ(critical_path_count(nl, k),
                extract_critical_paths(nl, k, model)->size());
    }
  }
}

TEST(Paths, ReverseIndexIsConsistent) {
  GeneratorConfig config;
  config.num_gates = 150;
  config.seed = 11;
  const Netlist nl = generate_circuit(config);
  const DelayModel model;
  const auto paths = extract_critical_paths(nl, 8, model);
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    for (std::uint32_t p : paths->paths_of_net(net)) {
      const auto& nets = paths->path(p).nets;
      EXPECT_NE(std::find(nets.begin(), nets.end(), net), nets.end());
    }
  }
}

struct TimerCase {
  std::size_t gates;
  std::uint64_t seed;
  int swaps;
};

class PathTimerProperty : public ::testing::TestWithParam<TimerCase> {};

TEST_P(PathTimerProperty, IncrementalMatchesRebuildUnderSwaps) {
  const auto c = GetParam();
  GeneratorConfig config;
  config.num_gates = c.gates;
  config.seed = c.seed;
  const Netlist nl = generate_circuit(config);
  const Layout layout(nl);
  Rng rng(c.seed + 1);
  Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);
  const DelayModel model;
  auto paths = extract_critical_paths(nl, 12, model);
  PathTimer timer(paths, hpwl, model);

  placement::NetMarker marker(nl.num_nets());
  std::vector<CellId> moved;
  std::vector<placement::NetChange> changes;
  for (int i = 0; i < c.swaps; ++i) {
    const auto [ia, ib] = rng.distinct_pair(nl.num_movable());
    moved.clear();
    changes.clear();
    p.swap_cells(nl.movable_cells()[ia], nl.movable_cells()[ib], &moved);
    marker.begin();
    for (CellId cell : moved) marker.add_nets_of(nl, cell);
    hpwl.update_nets(marker.nets(), &changes);
    for (const auto& change : changes) {
      timer.apply_net_change(change.net, change.old_hpwl, change.new_hpwl);
    }
    PathTimer fresh(paths, hpwl, model);
    ASSERT_NEAR(timer.max_delay(), fresh.max_delay(), 1e-6) << "swap " << i;
    for (std::size_t pi = 0; pi < paths->size(); ++pi) {
      ASSERT_NEAR(timer.path_delay(pi), fresh.path_delay(pi), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PathTimerProperty,
                         ::testing::Values(TimerCase{30, 1, 60},
                                           TimerCase{56, 2, 60},
                                           TimerCase{200, 3, 40}));

TEST(Paths, EstimateNeverExceedsExactSta) {
  // The monitored paths are a subset of all paths, so the estimate is a
  // lower bound on the exact critical delay.
  GeneratorConfig config;
  config.num_gates = 180;
  config.seed = 13;
  const Netlist nl = generate_circuit(config);
  const Layout layout(nl);
  Rng rng(2);
  const Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);
  const DelayModel model;
  const auto paths = extract_critical_paths(nl, 16, model);
  PathTimer timer(paths, hpwl, model);
  const StaResult sta = run_sta(nl, hpwl, model);
  EXPECT_LE(timer.max_delay(), sta.critical_delay + 1e-9);
  EXPECT_GT(timer.max_delay(), 0.0);
}

TEST(Paths, MorePathsTightenTheEstimate) {
  GeneratorConfig config;
  config.num_gates = 250;
  config.num_primary_outputs = 20;
  config.seed = 17;
  const Netlist nl = generate_circuit(config);
  const Layout layout(nl);
  Rng rng(6);
  const Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);
  const DelayModel model;
  PathTimer few(extract_critical_paths(nl, 2, model), hpwl, model);
  PathTimer many(extract_critical_paths(nl, 16, model), hpwl, model);
  EXPECT_GE(many.max_delay() + 1e-12, few.max_delay());
}

TEST(Slack, CriticalPathHasZeroSlackAtDefaultTarget) {
  const Netlist nl = chain();
  const Layout layout(nl, 1);
  const Placement p(nl, layout);
  HpwlState hpwl(p);
  DelayModel model;
  model.wire_delay_per_unit = 0.1;

  const SlackResult slack = analyze_slack(nl, hpwl, model);
  const StaResult sta = run_sta(nl, hpwl, model);
  EXPECT_NEAR(slack.critical_delay, sta.critical_delay, 1e-12);
  // Default target == critical delay: the whole chain is critical.
  EXPECT_NEAR(slack.worst_slack, 0.0, 1e-9);
  for (const CellId c : sta.critical_path) {
    EXPECT_NEAR(slack.slack[c], 0.0, 1e-9) << "cell " << c;
  }
  // Criticality is normalized to [0, 1] with the critical nets at 1.
  double max_crit = 0.0;
  for (const double crit : slack.net_criticality) {
    EXPECT_GE(crit, 0.0);
    EXPECT_LE(crit, 1.0 + 1e-12);
    max_crit = std::max(max_crit, crit);
  }
  EXPECT_NEAR(max_crit, 1.0, 1e-9);
}

TEST(Slack, TighterClockTargetGoesNegative) {
  const Netlist nl = chain();
  const Layout layout(nl, 1);
  const Placement p(nl, layout);
  HpwlState hpwl(p);
  const DelayModel model;

  const SlackResult relaxed = analyze_slack(nl, hpwl, model);
  const double tight_target = relaxed.critical_delay * 0.5;
  const SlackResult tight = analyze_slack(nl, hpwl, model, tight_target);
  EXPECT_NEAR(tight.target, tight_target, 1e-12);
  EXPECT_LT(tight.worst_slack, 0.0);
  EXPECT_NEAR(tight.worst_slack, -relaxed.critical_delay * 0.5, 1e-9);
}

TEST(Slack, CriticalityWeightsFavorCriticalNets) {
  GeneratorConfig config;
  config.num_gates = 80;
  config.seed = 9;
  const Netlist nl = generate_circuit(config);
  const Layout layout(nl);
  Rng rng(4);
  const Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);
  const DelayModel model;

  const SlackResult slack = analyze_slack(nl, hpwl, model);
  const auto weights = criticality_weights(slack, /*strength=*/2.0, /*gamma=*/2.0);
  ASSERT_EQ(weights.size(), slack.net_criticality.size());
  std::size_t most_critical = 0;
  for (std::size_t n = 0; n < weights.size(); ++n) {
    EXPECT_GE(weights[n], 1.0 - 1e-12);  // never below the base weight
    EXPECT_NEAR(weights[n],
                1.0 + 2.0 * slack.net_criticality[n] * slack.net_criticality[n],
                1e-9);
    if (slack.net_criticality[n] > slack.net_criticality[most_critical]) {
      most_critical = n;
    }
  }
  // The most critical net carries the largest weight.
  for (const double w : weights) {
    EXPECT_LE(w, weights[most_critical] + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Outside oracle: STA and critical-path extraction written over an
// adjacency the test holds itself (per-cell input lists with repeats,
// per-net driver and sinks) and the delay formula spelled out, so it never
// reads the CSR Topology that the library reads. run_sta, run_sta_uniform
// and extract_critical_paths must agree with it bit for bit.

/// The oracle's own copy of the pin graph, one vector per cell and net.
struct OracleGraph {
  std::vector<CellId> driver;               // per net
  std::vector<std::vector<CellId>> sinks;   // per net, in connect order
  std::vector<std::vector<NetId>> in_nets;  // per cell, in connect order

  void connect(NetId net, CellId sink) {
    sinks[net].push_back(sink);
    in_nets[sink].push_back(net);
  }
};

OracleGraph empty_graph(const Netlist& nl) {
  OracleGraph g;
  g.driver.resize(nl.num_nets());
  g.sinks.resize(nl.num_nets());
  g.in_nets.resize(nl.num_cells());
  for (NetId net = 0; net < nl.num_nets(); ++net) g.driver[net] = nl.net(net).driver;
  return g;
}

/// Copied once from a generated netlist, which takes no net twice on one
/// cell: the sink and input lists come from the CSR, whose contents
/// netlist_test pins for every benchmark circuit (content_hash covers the
/// sinks in order, the nets_of hash every cell's inputs in order).
OracleGraph copy_graph(const Netlist& nl) {
  OracleGraph g = empty_graph(nl);
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    const auto sinks = nl.topology().sinks(net);
    g.sinks[net].assign(sinks.begin(), sinks.end());
  }
  for (CellId cell = 0; cell < nl.num_cells(); ++cell) {
    const auto inputs = nl.topology().in_nets(cell);
    g.in_nets[cell].assign(inputs.begin(), inputs.end());
  }
  return g;
}

double oracle_cell_delay(const Netlist& nl, const OracleGraph& g, CellId cell) {
  const auto& c = nl.cell(cell);
  if (!c.movable()) return 0.0;
  const double fanout = c.out_net == netlist::kNoNet
                            ? 0.0
                            : static_cast<double>(g.sinks[c.out_net].size());
  return c.intrinsic_delay + c.load_factor * fanout;
}

template <class NetDelay>
StaResult oracle_sta(const Netlist& nl, const OracleGraph& g, NetDelay net_delay) {
  StaResult result;
  result.arrival.assign(nl.num_cells(), 0.0);
  std::vector<CellId> pred(nl.num_cells(), netlist::kNoCell);
  for (CellId cell : nl.topological_order()) {
    double max_in = 0.0;
    CellId best_pred = netlist::kNoCell;
    for (NetId net : g.in_nets[cell]) {
      const double t = result.arrival[g.driver[net]] + net_delay(net);
      if (t > max_in || best_pred == netlist::kNoCell) {
        max_in = t;
        best_pred = g.driver[net];
      }
    }
    pred[cell] = best_pred;
    result.arrival[cell] = max_in + oracle_cell_delay(nl, g, cell);
  }
  CellId worst_po = netlist::kNoCell;
  for (CellId cell : nl.pad_cells()) {
    if (nl.cell(cell).kind != netlist::CellKind::PrimaryOutput) continue;
    if (worst_po == netlist::kNoCell ||
        result.arrival[cell] > result.arrival[worst_po]) {
      worst_po = cell;
    }
  }
  if (worst_po != netlist::kNoCell) {
    result.critical_delay = result.arrival[worst_po];
    for (CellId walk = worst_po; walk != netlist::kNoCell; walk = pred[walk]) {
      result.critical_path.push_back(walk);
    }
    std::reverse(result.critical_path.begin(), result.critical_path.end());
  }
  return result;
}

std::vector<TimingPath> oracle_paths(const Netlist& nl, const OracleGraph& g,
                                     std::size_t k) {
  const StaResult sta = oracle_sta(nl, g, [](NetId) { return 1.0; });
  struct Candidate {
    CellId po;
    double arrival;
  };
  std::vector<Candidate> pos;
  for (CellId cell : nl.pad_cells()) {
    if (nl.cell(cell).kind == netlist::CellKind::PrimaryOutput) {
      pos.push_back({cell, sta.arrival[cell]});
    }
  }
  std::sort(pos.begin(), pos.end(), [](const Candidate& a, const Candidate& b) {
    return a.arrival > b.arrival;
  });
  pos.resize(std::min(k, pos.size()));
  std::vector<TimingPath> paths;
  for (const Candidate& candidate : pos) {
    TimingPath path;
    CellId walk = candidate.po;
    path.cells.push_back(walk);
    while (!g.in_nets[walk].empty()) {
      NetId best_net = netlist::kNoNet;
      CellId best_driver = netlist::kNoCell;
      double best_arrival = -1.0;
      for (NetId net : g.in_nets[walk]) {
        const CellId driver = g.driver[net];
        if (sta.arrival[driver] > best_arrival) {
          best_arrival = sta.arrival[driver];
          best_net = net;
          best_driver = driver;
        }
      }
      path.nets.push_back(best_net);
      path.cells.push_back(best_driver);
      walk = best_driver;
    }
    std::reverse(path.cells.begin(), path.cells.end());
    std::reverse(path.nets.begin(), path.nets.end());
    for (CellId cell : path.cells) path.const_delay += oracle_cell_delay(nl, g, cell);
    paths.push_back(std::move(path));
  }
  return paths;
}

/// A copy of `src` (same cell and net ids) in which every `every`-th gate
/// also sinks its first input net on one more pin, after its other inputs,
/// so Topology::net_repeats_cell is set on those nets; with the oracle's
/// graph recorded from the same builder calls.
std::pair<Netlist, OracleGraph> with_repeated_inputs(const Netlist& src,
                                                     std::size_t every) {
  netlist::NetlistBuilder b(src.name() + "-repeats");
  for (const auto& c : src.cells()) {
    switch (c.kind) {
      case netlist::CellKind::PrimaryInput:
        b.add_primary_input(c.name);
        break;
      case netlist::CellKind::PrimaryOutput:
        b.add_primary_output(c.name);
        break;
      case netlist::CellKind::Gate:
        b.add_gate(c.name, c.width, c.intrinsic_delay, c.load_factor);
        break;
    }
  }
  for (const auto& n : src.nets()) b.add_net(n.name, n.driver, n.weight);
  OracleGraph g = empty_graph(src);
  const auto connect = [&](NetId net, CellId sink) {
    b.connect_input(net, sink);
    g.connect(net, sink);
  };
  std::size_t gates = 0;
  for (CellId id = 0; id < src.num_cells(); ++id) {
    const auto inputs = src.topology().in_nets(id);
    for (NetId net : inputs) connect(net, id);
    if (src.cell(id).movable() && ++gates % every == 0) connect(inputs.front(), id);
  }
  return {std::move(b).build(), std::move(g)};
}

void expect_sta_eq(const StaResult& got, const StaResult& want) {
  ASSERT_EQ(got.arrival.size(), want.arrival.size());
  for (std::size_t c = 0; c < want.arrival.size(); ++c) {
    ASSERT_EQ(got.arrival[c], want.arrival[c]) << "cell " << c;
  }
  EXPECT_EQ(got.critical_delay, want.critical_delay);
  EXPECT_EQ(got.critical_path, want.critical_path);
}

void expect_matches_oracle(const Netlist& nl, const OracleGraph& g) {
  SCOPED_TRACE(nl.name());
  DelayModel model;
  model.wire_delay_per_unit = 0.07;
  for (CellId cell = 0; cell < nl.num_cells(); ++cell) {
    ASSERT_EQ(model.cell_delay(nl, cell), oracle_cell_delay(nl, g, cell));
  }
  expect_sta_eq(run_sta_uniform(nl, 1.0, model),
                oracle_sta(nl, g, [](NetId) { return 1.0; }));
  expect_sta_eq(run_sta_uniform(nl, 0.375, model),
                oracle_sta(nl, g, [](NetId) { return 0.375; }));

  const Layout layout(nl);
  Rng rng(nl.num_cells());
  const Placement p = Placement::random(nl, layout, rng);
  const HpwlState hpwl(p);
  expect_sta_eq(run_sta(nl, hpwl, model), oracle_sta(nl, g, [&](NetId net) {
                  return model.wire_delay(hpwl.net_hpwl(net));
                }));

  for (const std::size_t k : {1u, 24u, 1000u}) {
    const auto got = extract_critical_paths(nl, k, model);
    const auto want = oracle_paths(nl, g, k);
    ASSERT_EQ(got->size(), want.size()) << "k " << k;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got->path(i).cells, want[i].cells) << "k " << k << " path " << i;
      EXPECT_EQ(got->path(i).nets, want[i].nets) << "k " << k << " path " << i;
      EXPECT_EQ(got->path(i).const_delay, want[i].const_delay)
          << "k " << k << " path " << i;
    }
  }
}

TEST(TimingOracle, PaperAndScaleCircuitsMatchTheOracle) {
  for (const char* name : {"highway", "c532", "c1355", "c3540", "scale10k"}) {
    const Netlist nl = netlist::make_benchmark(name);
    expect_matches_oracle(nl, copy_graph(nl));
  }
}

TEST(TimingOracle, RepeatedInputPinsMatchTheOracle) {
  for (const std::uint64_t seed : {3u, 8u, 21u}) {
    GeneratorConfig config;
    config.num_gates = 300;
    config.num_primary_outputs = 16;
    config.seed = seed;
    const auto [nl, graph] = with_repeated_inputs(generate_circuit(config), 3);
    bool repeats = false;
    for (NetId net = 0; net < nl.num_nets(); ++net) {
      repeats = repeats || nl.topology().net_repeats_cell(net);
    }
    ASSERT_TRUE(repeats);
    expect_matches_oracle(nl, graph);
  }
}

}  // namespace
}  // namespace pts::timing
