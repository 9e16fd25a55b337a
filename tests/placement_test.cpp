// Unit and property tests for src/placement: layout geometry, placement
// permutation invariants, swap involution, incremental HPWL.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "netlist/benchmarks.hpp"
#include "netlist/generator.hpp"
#include "placement/hpwl.hpp"
#include "placement/layout.hpp"
#include "placement/placement.hpp"
#include "placement/svg.hpp"
#include "support/rng.hpp"

namespace pts::placement {
namespace {

using netlist::CellId;
using netlist::GeneratorConfig;
using netlist::Netlist;

Netlist small_circuit(std::size_t gates = 30, std::uint64_t seed = 5) {
  GeneratorConfig config;
  config.num_gates = gates;
  config.num_primary_inputs = 4;
  config.num_primary_outputs = 4;
  config.seed = seed;
  return generate_circuit(config);
}

TEST(Layout, AutoRowsRoughlySquare) {
  const Netlist nl = small_circuit(100);
  const Layout layout(nl);
  EXPECT_EQ(layout.num_slots(), 100u);
  EXPECT_NEAR(static_cast<double>(layout.num_rows()), 10.0, 2.0);
  // All slots mapped to valid rows/columns; partial last row accounted.
  std::size_t total = 0;
  for (std::size_t r = 0; r < layout.num_rows(); ++r) {
    total += layout.slots_in_row(r);
  }
  EXPECT_EQ(total, layout.num_slots());
}

TEST(Layout, ExplicitRowCount) {
  const Netlist nl = small_circuit(30);
  const Layout layout(nl, 5);
  EXPECT_EQ(layout.num_rows(), 5u);
  EXPECT_EQ(layout.slots_per_row(), 6u);
}

TEST(Layout, RowCountClampedToCells) {
  const Netlist nl = small_circuit(3);
  const Layout layout(nl, 10);
  EXPECT_LE(layout.num_rows(), 3u);
}

TEST(Layout, SlotRowColumnRoundTrip) {
  const Netlist nl = small_circuit(47);
  const Layout layout(nl, 6);
  for (SlotId s = 0; s < layout.num_slots(); ++s) {
    const auto r = layout.row_of_slot(s);
    const auto c = layout.column_of_slot(s);
    EXPECT_EQ(layout.slot_at(r, c), s);
    EXPECT_LT(c, layout.slots_in_row(r));
  }
}

TEST(Layout, PadsSitOutsideTheCore) {
  const Netlist nl = small_circuit();
  const Layout layout(nl);
  for (CellId pad : nl.pad_cells()) {
    const Point p = layout.pad_position(pad);
    if (nl.cell(pad).kind == netlist::CellKind::PrimaryInput) {
      EXPECT_LT(p.x, 0.0);
    } else {
      EXPECT_GT(p.x, layout.nominal_width());
    }
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, layout.core_height());
  }
}

TEST(LayoutDeath, PadPositionOfGateFails) {
  const Netlist nl = small_circuit();
  const Layout layout(nl);
  EXPECT_DEATH(layout.pad_position(nl.movable_cells()[0]), "pad_position");
}

// The O(1) probe path is bit-identical to a pin fold only over finite
// coordinates that are never -0.0 (DESIGN.md §9).
TEST(Layout, ExactCoordinatePredicate) {
  EXPECT_TRUE(placement::exact_coordinate(0.0));
  EXPECT_TRUE(placement::exact_coordinate(0.5));
  EXPECT_TRUE(placement::exact_coordinate(-2.0));
  EXPECT_FALSE(placement::exact_coordinate(-0.0));
  EXPECT_FALSE(placement::exact_coordinate(INFINITY));
  EXPECT_FALSE(placement::exact_coordinate(-INFINITY));
  EXPECT_FALSE(placement::exact_coordinate(NAN));
}

TEST(LayoutDeath, NonFinitePadPositionFails) {
  const Netlist nl = small_circuit();
  // An infinite row height passes the positivity check but spreads the pads
  // to infinity.
  EXPECT_DEATH(Layout(nl, 0, INFINITY), "pad position must be finite");
}

// Placement checks every row origin it lays cells from. A Layout cannot
// produce a bad one without its own pad check firing first (pads spread
// over the whole core height), so this pins the accepted side: every
// coordinate a placement holds passes the predicate.
TEST(Placement, RowOriginsAndPositionsAreExactCoordinates) {
  const Netlist nl = small_circuit(120, 5);
  for (double row_height : {1.0, 0.75, 1e-300, 1e300}) {
    const Layout layout(nl, 0, row_height);
    Rng rng(11);
    const Placement p = Placement::random(nl, layout, rng);
    for (std::size_t row = 0; row < layout.num_rows(); ++row) {
      EXPECT_TRUE(placement::exact_coordinate(layout.row_y(row)));
    }
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      EXPECT_TRUE(placement::exact_coordinate(p.position(c).x));
      EXPECT_TRUE(placement::exact_coordinate(p.position(c).y));
    }
  }
}

TEST(Placement, IdentityIsConsistent) {
  const Netlist nl = small_circuit();
  const Layout layout(nl);
  const Placement p(nl, layout);
  p.check_consistent();
}

TEST(Placement, RandomIsPermutation) {
  const Netlist nl = small_circuit(64);
  const Layout layout(nl);
  Rng rng(3);
  const Placement p = Placement::random(nl, layout, rng);
  p.check_consistent();
  std::set<SlotId> slots;
  for (CellId c : nl.movable_cells()) slots.insert(p.slot_of(c));
  EXPECT_EQ(slots.size(), nl.num_movable());
}

TEST(Placement, PositionsMatchPrefixSums) {
  const Netlist nl = small_circuit(20);
  const Layout layout(nl, 4);
  const Placement p(nl, layout);
  for (std::size_t r = 0; r < layout.num_rows(); ++r) {
    double x = 0.0;
    for (std::size_t c = 0; c < layout.slots_in_row(r); ++c) {
      const CellId cell = p.cell_at(layout.slot_at(r, c));
      const double w = nl.cell(cell).width;
      EXPECT_NEAR(p.position(cell).x, x + w / 2.0, 1e-12);
      EXPECT_NEAR(p.position(cell).y, layout.row_y(r), 1e-12);
      x += w;
    }
    EXPECT_NEAR(p.row_extent(r), x, 1e-12);
  }
}

struct SwapCase {
  std::size_t gates;
  std::uint64_t seed;
  int swaps;
};

class SwapProperty : public ::testing::TestWithParam<SwapCase> {};

TEST_P(SwapProperty, SwapIsInvolution) {
  const auto c = GetParam();
  const Netlist nl = small_circuit(c.gates, c.seed);
  const Layout layout(nl);
  Rng rng(c.seed);
  Placement p = Placement::random(nl, layout, rng);
  const Placement before = p;
  for (int i = 0; i < c.swaps; ++i) {
    const auto [ia, ib] = rng.distinct_pair(nl.num_movable());
    const CellId a = nl.movable_cells()[ia];
    const CellId b = nl.movable_cells()[ib];
    p.swap_cells(a, b);
    p.swap_cells(a, b);
    EXPECT_TRUE(p == before);
  }
  p.check_consistent();
}

TEST_P(SwapProperty, RandomSwapSequenceStaysConsistent) {
  const auto c = GetParam();
  const Netlist nl = small_circuit(c.gates, c.seed);
  const Layout layout(nl);
  Rng rng(c.seed + 99);
  Placement p = Placement::random(nl, layout, rng);
  for (int i = 0; i < c.swaps; ++i) {
    const auto [ia, ib] = rng.distinct_pair(nl.num_movable());
    p.swap_cells(nl.movable_cells()[ia], nl.movable_cells()[ib]);
  }
  p.check_consistent();
}

TEST_P(SwapProperty, MovedCellsCoverAllPositionChanges) {
  const auto c = GetParam();
  const Netlist nl = small_circuit(c.gates, c.seed);
  const Layout layout(nl);
  Rng rng(c.seed + 7);
  Placement p = Placement::random(nl, layout, rng);
  for (int i = 0; i < c.swaps; ++i) {
    // Record all positions, swap, and verify every changed position
    // belongs to a reported moved cell.
    std::vector<Point> before(nl.num_cells());
    for (CellId cell : nl.movable_cells()) before[cell] = p.position(cell);
    const auto [ia, ib] = rng.distinct_pair(nl.num_movable());
    const CellId a = nl.movable_cells()[ia];
    const CellId b = nl.movable_cells()[ib];
    std::vector<CellId> moved;
    p.swap_cells(a, b, &moved);
    const std::set<CellId> moved_set(moved.begin(), moved.end());
    EXPECT_TRUE(moved_set.count(a));
    EXPECT_TRUE(moved_set.count(b));
    for (CellId cell : nl.movable_cells()) {
      const Point now = p.position(cell);
      if (std::abs(now.x - before[cell].x) > 1e-12 ||
          std::abs(now.y - before[cell].y) > 1e-12) {
        EXPECT_TRUE(moved_set.count(cell)) << "cell " << cell << " moved silently";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SwapProperty,
                         ::testing::Values(SwapCase{10, 1, 50}, SwapCase{30, 2, 50},
                                           SwapCase{56, 3, 30},
                                           SwapCase{120, 4, 30}));

TEST(Placement, AssignSlotsRoundTrip) {
  const Netlist nl = small_circuit(25);
  const Layout layout(nl);
  Rng rng(8);
  Placement p = Placement::random(nl, layout, rng);
  const auto slots = p.slots();
  Placement q(nl, layout);
  q.assign_slots(slots);
  EXPECT_TRUE(p == q);
  q.check_consistent();
}

TEST(PlacementDeath, AssignSlotsRejectsDuplicates) {
  const Netlist nl = small_circuit(10);
  const Layout layout(nl);
  Placement p(nl, layout);
  auto slots = p.slots();
  slots[1] = slots[0];
  EXPECT_DEATH(p.assign_slots(slots), "twice");
}

// ---------------------------------------------------------------------------
// Incremental HPWL.

class HpwlProperty : public ::testing::TestWithParam<SwapCase> {};

TEST_P(HpwlProperty, IncrementalMatchesFreshRecompute) {
  const auto c = GetParam();
  const Netlist nl = small_circuit(c.gates, c.seed);
  const Layout layout(nl);
  Rng rng(c.seed + 31);
  Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);
  NetMarker marker(nl.num_nets());
  std::vector<CellId> moved;

  for (int i = 0; i < c.swaps; ++i) {
    const auto [ia, ib] = rng.distinct_pair(nl.num_movable());
    moved.clear();
    p.swap_cells(nl.movable_cells()[ia], nl.movable_cells()[ib], &moved);
    marker.begin();
    for (CellId cell : moved) marker.add_nets_of(nl, cell);
    hpwl.update_nets(marker.nets());
    ASSERT_NEAR(hpwl.total(), hpwl.compute_fresh_total(), 1e-6)
        << "after swap " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HpwlProperty,
                         ::testing::Values(SwapCase{15, 1, 100},
                                           SwapCase{56, 2, 100},
                                           SwapCase{120, 3, 60},
                                           SwapCase{395, 4, 40}));

TEST(Hpwl, HandComputedTwoNetCase) {
  // a(pi) -> g1 -> g2 -> z(po); 2 gates on one row of two unit cells.
  netlist::NetlistBuilder b("hand");
  const CellId pi = b.add_primary_input("a");
  const CellId g1 = b.add_gate("g1", 1, 1.0, 0.1);
  const CellId g2 = b.add_gate("g2", 1, 1.0, 0.1);
  const CellId po = b.add_primary_output("z");
  const auto n0 = b.add_net("n0", pi);
  b.connect_input(n0, g1);
  const auto n1 = b.add_net("n1", g1);
  b.connect_input(n1, g2);
  const auto n2 = b.add_net("n2", g2);
  b.connect_input(n2, po);
  const Netlist nl = std::move(b).build();

  const Layout layout(nl, 1);
  const Placement p(nl, layout);  // g1 at x=0.5, g2 at x=1.5, row y=0.5
  HpwlState hpwl(p);

  const Point pa = layout.pad_position(pi);
  const Point pz = layout.pad_position(po);
  const double expected_n0 = (0.5 - pa.x) + std::abs(pa.y - 0.5);
  const double expected_n1 = 1.0;  // between adjacent cells, same row
  const double expected_n2 = (pz.x - 1.5) + std::abs(pz.y - 0.5);
  EXPECT_NEAR(hpwl.net_hpwl(n0), expected_n0, 1e-12);
  EXPECT_NEAR(hpwl.net_hpwl(n1), expected_n1, 1e-12);
  EXPECT_NEAR(hpwl.net_hpwl(n2), expected_n2, 1e-12);
  EXPECT_NEAR(hpwl.total(), expected_n0 + expected_n1 + expected_n2, 1e-12);
}

TEST(Hpwl, WeightsScaleTotal) {
  const Netlist nl = small_circuit(40, 77);
  const Layout layout(nl);
  const Placement p(nl, layout);
  HpwlState hpwl(p);
  double manual = 0.0;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    manual += nl.net(n).weight * hpwl.net_hpwl(n);
  }
  EXPECT_NEAR(hpwl.total(), manual, 1e-9);
}

TEST(Hpwl, UpdateReportsPerNetChanges) {
  const Netlist nl = small_circuit(30, 12);
  const Layout layout(nl);
  Rng rng(4);
  Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);
  NetMarker marker(nl.num_nets());
  std::vector<CellId> moved;
  const CellId a = nl.movable_cells()[0];
  const CellId b = nl.movable_cells()[nl.num_movable() - 1];
  p.swap_cells(a, b, &moved);
  marker.begin();
  for (CellId cell : moved) marker.add_nets_of(nl, cell);
  std::vector<NetChange> changes;
  hpwl.update_nets(marker.nets(), &changes);
  for (const auto& change : changes) {
    EXPECT_NE(change.old_hpwl, change.new_hpwl);
    EXPECT_NEAR(hpwl.net_hpwl(change.net), change.new_hpwl, 1e-12);
  }
}

TEST(NetMarkerTest, DeduplicatesAcrossCells) {
  const Netlist nl = small_circuit(20, 9);
  NetMarker marker(nl.num_nets());
  marker.begin();
  const CellId a = nl.movable_cells()[0];
  marker.add_nets_of(nl, a);
  marker.add_nets_of(nl, a);  // same cell twice
  std::set<netlist::NetId> unique(marker.nets().begin(), marker.nets().end());
  EXPECT_EQ(unique.size(), marker.nets().size());
  EXPECT_EQ(unique.size(), nl.nets_of(a).size());

  // Each net records its first added cell and how many added cells touch
  // it: a's nets were all added twice by the same cell.
  for (std::size_t k = 0; k < marker.nets().size(); ++k) {
    EXPECT_EQ(marker.first_cells()[k], a);
    EXPECT_EQ(marker.cell_counts()[k], 2u);
  }

  marker.begin();  // new epoch forgets everything
  EXPECT_TRUE(marker.nets().empty());

  // The driver of a's output net and one of its sinks share that net.
  const netlist::NetId out = nl.cell(a).out_net;
  const CellId sink = nl.topology().sinks(out).front();
  marker.add_nets_of(nl, sink);
  marker.add_nets_of(nl, a);
  const auto nets = marker.nets();
  const auto at = std::find(nets.begin(), nets.end(), out) - nets.begin();
  ASSERT_LT(static_cast<std::size_t>(at), nets.size());
  EXPECT_EQ(marker.first_cells()[static_cast<std::size_t>(at)], sink);
  EXPECT_EQ(marker.cell_counts()[static_cast<std::size_t>(at)], 2u);
  const auto touches = [&](CellId cell, netlist::NetId net) {
    const auto of = nl.nets_of(cell);
    return std::find(of.begin(), of.end(), net) != of.end() ? 1u : 0u;
  };
  for (std::size_t k = 0; k < nets.size(); ++k) {
    EXPECT_EQ(marker.cell_counts()[k],
              touches(sink, nets[k]) + touches(a, nets[k]));
  }
}

TEST(Svg, RenderProducesWellFormedDocument) {
  const Netlist nl = small_circuit();
  const Layout layout(nl);
  Rng rng(7);
  const Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);

  SvgOptions options;
  options.title = "svg-test-title";
  const std::string svg = render_svg(p, hpwl, options);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("svg-test-title"), std::string::npos);
  // One rect per movable cell at minimum (rows/pads add more).
  std::size_t rects = 0;
  for (std::size_t at = svg.find("<rect"); at != std::string::npos;
       at = svg.find("<rect", at + 1)) {
    ++rects;
  }
  EXPECT_GE(rects, nl.num_movable());
}

TEST(Svg, IntensityAndFlylineOptionsChangeOutput) {
  const Netlist nl = small_circuit();
  const Layout layout(nl);
  Rng rng(8);
  const Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);

  SvgOptions plain;
  plain.flylines = 0;
  SvgOptions decorated;
  decorated.flylines = 8;
  decorated.cell_intensity.assign(nl.num_cells(), 1.0);
  const std::string a = render_svg(p, hpwl, plain);
  const std::string b = render_svg(p, hpwl, decorated);
  EXPECT_NE(a, b);
  // Flylines render as lines; the plain variant should have fewer.
  const auto count = [](const std::string& s, const char* needle) {
    std::size_t n = 0;
    for (std::size_t at = s.find(needle); at != std::string::npos;
         at = s.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_GT(count(b, "<line"), count(a, "<line"));
}

TEST(Svg, SaveWritesTheRenderedFile) {
  const Netlist nl = small_circuit();
  const Layout layout(nl);
  Rng rng(9);
  const Placement p = Placement::random(nl, layout, rng);
  HpwlState hpwl(p);

  const std::string path = ::testing::TempDir() + "pts_svg_test.svg";
  save_svg(p, hpwl, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), render_svg(p, hpwl));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pts::placement
