// Unit and property tests for src/netlist: builder validation, topology,
// generator invariants, text IO round-trip, benchmark registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "netlist/benchmarks.hpp"
#include "netlist/generator.hpp"
#include "netlist/io.hpp"
#include "netlist/netlist.hpp"

namespace pts::netlist {
namespace {

/// pi -> g1 -> g2 -> po, plus pi -> g2 (reconvergent fanout-free chain).
Netlist tiny_chain() {
  NetlistBuilder b("tiny");
  const CellId pi = b.add_primary_input("a");
  const CellId g1 = b.add_gate("g1", 2, 1.0, 0.1);
  const CellId g2 = b.add_gate("g2", 1, 2.0, 0.2);
  const CellId po = b.add_primary_output("z");
  const NetId n0 = b.add_net("n0", pi);
  b.connect_input(n0, g1);
  b.connect_input(n0, g2);
  const NetId n1 = b.add_net("n1", g1);
  b.connect_input(n1, g2);
  const NetId n2 = b.add_net("n2", g2, 2.0);
  b.connect_input(n2, po);
  return std::move(b).build();
}

TEST(NetlistBuilder, BuildsValidChain) {
  const Netlist nl = tiny_chain();
  EXPECT_EQ(nl.num_cells(), 4u);
  EXPECT_EQ(nl.num_nets(), 3u);
  EXPECT_EQ(nl.num_movable(), 2u);
  EXPECT_EQ(nl.pad_cells().size(), 2u);
  EXPECT_EQ(nl.total_movable_width(), 3);
  EXPECT_EQ(nl.logic_depth(), 3u);  // pi -> g1 -> g2 -> po
  EXPECT_EQ(nl.num_pins(), 3u + 2u + 2u);  // n0 fans out to g1 and g2
}

TEST(NetlistBuilder, FindCellByName) {
  const Netlist nl = tiny_chain();
  ASSERT_TRUE(nl.find_cell("g2").has_value());
  EXPECT_EQ(nl.cell(*nl.find_cell("g2")).intrinsic_delay, 2.0);
  EXPECT_FALSE(nl.find_cell("nope").has_value());
}

TEST(NetlistBuilder, NetsOfIsDeduplicated) {
  const Netlist nl = tiny_chain();
  const CellId g2 = *nl.find_cell("g2");
  // g2: out n2, inputs n0 and n1 -> 3 distinct incident nets.
  EXPECT_EQ(nl.nets_of(g2).size(), 3u);
}

TEST(NetlistBuilder, TopologicalOrderRespectsEdges) {
  const Netlist nl = tiny_chain();
  const auto& topo = nl.topological_order();
  ASSERT_EQ(topo.size(), nl.num_cells());
  std::map<CellId, std::size_t> position;
  for (std::size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    for (CellId sink : nl.topology().sinks(net)) {
      EXPECT_LT(position[nl.net(net).driver], position[sink]);
    }
  }
}

using NetlistDeath = ::testing::Test;

TEST(NetlistDeath, RejectsCycle) {
  NetlistBuilder b("cycle");
  const CellId pi = b.add_primary_input("a");
  const CellId g1 = b.add_gate("g1", 1, 1.0, 0.1);
  const CellId g2 = b.add_gate("g2", 1, 1.0, 0.1);
  const CellId po = b.add_primary_output("z");
  const NetId n0 = b.add_net("n0", pi);
  b.connect_input(n0, g1);
  const NetId n1 = b.add_net("n1", g1);
  b.connect_input(n1, g2);
  const NetId n2 = b.add_net("n2", g2);
  b.connect_input(n2, g1);  // g2 -> g1 closes the cycle
  b.connect_input(n2, po);
  EXPECT_DEATH(std::move(b).build(), "cycle");
}

TEST(NetlistDeath, RejectsDanglingNet) {
  NetlistBuilder b("dangling");
  const CellId pi = b.add_primary_input("a");
  const CellId g1 = b.add_gate("g1", 1, 1.0, 0.1);
  const CellId po = b.add_primary_output("z");
  const NetId n0 = b.add_net("n0", pi);
  b.connect_input(n0, g1);
  b.connect_input(n0, po);
  b.add_net("n1", g1);  // never sunk
  EXPECT_DEATH(std::move(b).build(), "sink");
}

TEST(NetlistDeath, RejectsDoubleDriver) {
  NetlistBuilder b("double");
  const CellId pi = b.add_primary_input("a");
  b.add_net("n0", pi);
  EXPECT_DEATH(b.add_net("n1", pi), "already drives");
}

TEST(NetlistDeath, RejectsDuplicateNames) {
  NetlistBuilder b("dup");
  const CellId pi = b.add_primary_input("a");
  const CellId g = b.add_gate("a", 1, 1.0, 0.1);  // same name as the PI
  const CellId po = b.add_primary_output("z");
  const NetId n0 = b.add_net("n0", pi);
  b.connect_input(n0, g);
  const NetId n1 = b.add_net("n1", g);
  b.connect_input(n1, po);
  EXPECT_DEATH(std::move(b).build(), "duplicate");
}

TEST(NetlistDeath, RejectsNetNamedLikeACell) {
  NetlistBuilder b("dup");
  const CellId pi = b.add_primary_input("a");
  const CellId po = b.add_primary_output("z");
  const NetId n0 = b.add_net("z", pi);  // same name as the PO
  b.connect_input(n0, po);
  EXPECT_DEATH(std::move(b).build(), "duplicate net name");
}

TEST(NetlistDeath, RejectsTwoNetsSharingAName) {
  NetlistBuilder b("dup");
  const CellId pi = b.add_primary_input("a");
  const CellId g = b.add_gate("g", 1, 1.0, 0.1);
  const CellId po = b.add_primary_output("z");
  const NetId n0 = b.add_net("n", pi);
  b.connect_input(n0, g);
  const NetId n1 = b.add_net("n", g);
  b.connect_input(n1, po);
  EXPECT_DEATH(std::move(b).build(), "duplicate net name");
}

/// `pairs` PI -> PO connections: ~3 * pairs distinct names, the last net
/// optionally renamed to the first net's name (the last name checked).
NetlistBuilder many_names(std::size_t pairs, bool last_net_repeats) {
  NetlistBuilder b("many");
  std::vector<CellId> pis, pos;
  for (std::size_t i = 0; i < pairs; ++i) {
    pis.push_back(b.add_primary_input("pi" + std::to_string(i)));
    pos.push_back(b.add_primary_output("po" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < pairs; ++i) {
    const bool repeat = last_net_repeats && i + 1 == pairs;
    const NetId n = b.add_net(repeat ? "n0" : "n" + std::to_string(i), pis[i]);
    b.connect_input(n, pos[i]);
  }
  return b;
}

TEST(NetlistDeath, RejectsADuplicateThatIsTheLastOfManyNames) {
  const Netlist ok = many_names(6700, /*last_net_repeats=*/false).build();
  EXPECT_EQ(ok.num_cells() + ok.num_nets(), 20100u);
  EXPECT_DEATH(many_names(6700, /*last_net_repeats=*/true).build(),
               "duplicate net name");
}

TEST(NetlistBuilder, TryBuildReturnsTheFirstErrorInsteadOfAborting) {
  NetlistBuilder cycle("cycle");
  const CellId a = cycle.add_primary_input("a");
  const CellId g1 = cycle.add_gate("g1", 1, 1.0, 0.1);
  const CellId g2 = cycle.add_gate("g2", 1, 1.0, 0.1);
  const CellId z = cycle.add_primary_output("z");
  cycle.connect_input(cycle.add_net("n0", a), g1);
  cycle.connect_input(cycle.add_net("n1", g1), g2);
  const NetId n2 = cycle.add_net("n2", g2);
  cycle.connect_input(n2, g1);
  cycle.connect_input(n2, z);
  const BuildResult cyclic = std::move(cycle).try_build();
  EXPECT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.error, "netlist contains a combinational cycle");

  // Cells are checked before nets, so the PO's error wins over the
  // dangling net's.
  NetlistBuilder twice("twice");
  const CellId b = twice.add_primary_input("b");
  const CellId c = twice.add_primary_input("c");
  const CellId d = twice.add_primary_input("d");
  const CellId y = twice.add_primary_output("y");
  twice.connect_input(twice.add_net("nb", b), y);
  twice.connect_input(twice.add_net("nc", c), y);
  twice.add_net("nd", d);
  const BuildResult bad = std::move(twice).try_build();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error, "PO 'y' must sink exactly one net, sinks 2");
}

TEST(NetlistDeath, RejectsSelfLoop) {
  NetlistBuilder b("self");
  const CellId pi = b.add_primary_input("a");
  const CellId g = b.add_gate("g", 1, 1.0, 0.1);
  const NetId n0 = b.add_net("n0", pi);
  b.connect_input(n0, g);
  const NetId n1 = b.add_net("n1", g);
  EXPECT_DEATH(b.connect_input(n1, g), "self-loop");
}

/// FNV-1a 64 over a sequence of values, each as 8 little-endian bytes.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The topological order followed by the logic depth.
std::uint64_t order_fnv(const Netlist& nl) {
  Fnv fnv;
  for (const CellId id : nl.topological_order()) fnv.mix(id);
  fnv.mix(nl.logic_depth());
  return fnv.value();
}

/// Every cell's nets_of list in id order, each as its length and then its
/// net ids.
std::uint64_t nets_of_fnv(const Netlist& nl) {
  Fnv fnv;
  for (CellId cell = 0; cell < nl.num_cells(); ++cell) {
    const auto nets = nl.nets_of(cell);
    fnv.mix(nets.size());
    for (const NetId net : nets) fnv.mix(net);
  }
  return fnv.value();
}

TEST(NetlistBuilder, TopologicalOrderAndDepthArePinned) {
  // The sort's LIFO frontier order is part of the contract (STA, paths and
  // slack iterate it), so any change of order must show here first. The
  // adjacency is pinned beside it, as captured from the object-model build
  // (per-cell and per-net vectors) before the CSR became the only
  // adjacency: content_hash covers every net's driver and its sinks in
  // order, and nets_of_fnv every cell's nets_of list (out net first,
  // inputs deduplicated in first-seen order).
  const struct {
    const char* circuit;
    std::size_t depth;
    std::uint64_t fnv;
    std::uint64_t content_hash;
    std::uint64_t nets_of_fnv;
  } pins[] = {
      {"highway", 14, 0xb0eb6edb26a7686bULL, 0xe1ec88ab46e867ebULL,
       0xd270e81c1b99962dULL},
      {"c532", 50, 0xba25c95acdcca7cfULL, 0xcbfe07b7ab8cc5cfULL,
       0xf38183ad9fec28d9ULL},
      {"c1355", 165, 0xa74ebdefdc47f35cULL, 0x813c4bc3eadaba35ULL,
       0xad0b777d091d0c9eULL},
      {"c3540", 247, 0x8d6a54a294cc44d2ULL, 0x6d1b4098c1024072ULL,
       0x14c4edc625e482dcULL},
      {"scale10k", 316, 0x2465c4c519d21476ULL, 0x586f7eca82014d2aULL,
       0xa33bd8c77d1e3dc3ULL},
  };
  for (const auto& pin : pins) {
    const Netlist nl = make_benchmark(pin.circuit);
    EXPECT_EQ(nl.logic_depth(), pin.depth) << pin.circuit;
    EXPECT_EQ(order_fnv(nl), pin.fnv)
        << "{\"" << pin.circuit << "\", " << nl.logic_depth() << ", 0x"
        << std::hex << order_fnv(nl) << std::dec << "ULL},";
    EXPECT_EQ(content_hash(nl), pin.content_hash) << pin.circuit;
    EXPECT_EQ(nets_of_fnv(nl), pin.nets_of_fnv) << pin.circuit;
  }
}

// ---------------------------------------------------------------------------
// Generator property tests, parameterized over sizes and seeds.

struct GenCase {
  std::size_t gates;
  std::size_t pis;
  std::size_t pos;
  std::uint64_t seed;
};

class GeneratorProperty : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorProperty, StructuralInvariants) {
  const GenCase c = GetParam();
  GeneratorConfig config;
  config.num_gates = c.gates;
  config.num_primary_inputs = c.pis;
  config.num_primary_outputs = c.pos;
  config.seed = c.seed;
  const Netlist nl = generate_circuit(config);  // build() re-checks validity

  EXPECT_EQ(nl.num_movable(), c.gates);
  std::size_t pis = 0, pos = 0;
  for (CellId pad : nl.pad_cells()) {
    (nl.cell(pad).kind == CellKind::PrimaryInput ? pis : pos) += 1;
  }
  EXPECT_EQ(pis, c.pis);
  EXPECT_GE(pos, c.pos);  // extra POs may absorb dangling nets

  // Every net driven and sunk; gate fanin within bounds. Fanin counts input
  // pins from the sink side, so one net on two pins of a gate counts twice.
  std::vector<std::size_t> input_pins(nl.num_cells(), 0);
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    EXPECT_NE(nl.net(net).driver, kNoCell);
    EXPECT_GE(nl.topology().sinks(net).size(), 1u);
    for (CellId sink : nl.topology().sinks(net)) ++input_pins[sink];
  }
  for (CellId gate : nl.movable_cells()) {
    EXPECT_GE(input_pins[gate], 1u);
    EXPECT_LE(input_pins[gate], config.max_fanin);
    EXPECT_GE(nl.cell(gate).width, config.min_width);
    EXPECT_LE(nl.cell(gate).width, config.max_width);
  }
  // Topological order exists (acyclic) — finalize() checked; logic depth
  // is positive for any non-trivial circuit.
  EXPECT_GE(nl.logic_depth(), 1u);
}

TEST_P(GeneratorProperty, DeterministicForSeed) {
  const GenCase c = GetParam();
  GeneratorConfig config;
  config.num_gates = c.gates;
  config.num_primary_inputs = c.pis;
  config.num_primary_outputs = c.pos;
  config.seed = c.seed;
  const Netlist a = generate_circuit(config);
  const Netlist b = generate_circuit(config);
  EXPECT_EQ(to_net_format(a), to_net_format(b));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorProperty,
    ::testing::Values(GenCase{5, 2, 2, 1}, GenCase{20, 4, 4, 7},
                      GenCase{56, 8, 8, 3}, GenCase{200, 16, 12, 11},
                      GenCase{395, 20, 20, 5}, GenCase{800, 30, 25, 13}));

TEST(Generator, DifferentSeedsDifferentCircuits) {
  GeneratorConfig a, b;
  a.num_gates = b.num_gates = 100;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(to_net_format(generate_circuit(a)), to_net_format(generate_circuit(b)));
}

TEST(Generator, LocalityIncreasesDepth) {
  GeneratorConfig shallow, deep;
  shallow.num_gates = deep.num_gates = 400;
  shallow.seed = deep.seed = 9;
  shallow.locality = 0.0;
  deep.locality = 0.95;
  deep.locality_window = 4;
  EXPECT_GT(generate_circuit(deep).logic_depth(),
            generate_circuit(shallow).logic_depth());
}

// ---------------------------------------------------------------------------
// IO round-trip.

TEST(NetlistIo, RoundTripPreservesEverything) {
  const Netlist original = tiny_chain();
  const std::string text = to_net_format(original);
  const Netlist parsed = parse_netlist_string(text);
  EXPECT_EQ(to_net_format(parsed), text);
  EXPECT_EQ(parsed.name(), "tiny");
  EXPECT_EQ(parsed.num_cells(), original.num_cells());
  EXPECT_EQ(parsed.num_nets(), original.num_nets());
  EXPECT_EQ(parsed.net(2).weight, 2.0);
}

TEST(NetlistIo, RoundTripGeneratedCircuit) {
  GeneratorConfig config;
  config.num_gates = 150;
  config.seed = 21;
  const Netlist original = generate_circuit(config);
  const Netlist parsed = parse_netlist_string(to_net_format(original));
  EXPECT_EQ(to_net_format(parsed), to_net_format(original));
  EXPECT_EQ(parsed.logic_depth(), original.logic_depth());
  EXPECT_EQ(parsed.total_movable_width(), original.total_movable_width());
}

TEST(NetlistIo, ParsesCommentsAndBlanks) {
  const std::string text =
      "# header comment\n"
      "circuit c\n"
      "\n"
      "pi a\n"
      "gate g 1 1.0 0.1\n"
      "po z\n"
      "net n0 1 a g\n"
      "net n1 1 g z\n";
  const Netlist nl = parse_netlist_string(text);
  EXPECT_EQ(nl.num_cells(), 3u);
}

TEST(NetlistIoDeath, RejectsUnknownCell) {
  EXPECT_DEATH(parse_netlist_string("circuit c\npi a\nnet n0 1 a ghost\n"),
               "unknown cell");
}

TEST(NetlistIoDeath, RejectsUnknownKeyword) {
  EXPECT_DEATH(parse_netlist_string("circuit c\nfrobnicate x\n"),
               "unknown keyword");
}

// ---------------------------------------------------------------------------
// Benchmark registry.

TEST(Benchmarks, RegistryMatchesPaperSizes) {
  const auto& all = paper_benchmarks();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name, "highway");
  EXPECT_EQ(all[0].cells, 56u);
  EXPECT_EQ(all[1].name, "c532");
  EXPECT_EQ(all[1].cells, 395u);
  EXPECT_EQ(all[2].name, "c1355");
  EXPECT_EQ(all[2].cells, 1451u);
  EXPECT_EQ(all[3].name, "c3540");
  EXPECT_EQ(all[3].cells, 2243u);
}

TEST(Benchmarks, MakeBenchmarkHasPaperCellCount) {
  for (const auto& info : paper_benchmarks()) {
    const Netlist nl = make_benchmark(info.name);
    EXPECT_EQ(nl.num_movable(), info.cells) << info.name;
    EXPECT_EQ(nl.name(), info.name);
  }
}

TEST(Benchmarks, IsPaperBenchmark) {
  EXPECT_TRUE(is_paper_benchmark("c1355"));
  EXPECT_FALSE(is_paper_benchmark("c17"));
}

TEST(BenchmarksDeath, UnknownNameFails) {
  EXPECT_DEATH(make_benchmark("c17"), "unknown benchmark");
}

}  // namespace
}  // namespace pts::netlist
