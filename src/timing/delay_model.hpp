// Delay model shared by the exact analyzer and the incremental estimator.
//
// Cell delay is placement-independent: intrinsic switching delay plus a
// load term proportional to the fanout of the driven net. Interconnect
// delay is placement-dependent: proportional to the half-perimeter of the
// net's bounding box (the classic linear-in-HPWL estimate used by
// TimberWolf-era placers).
#pragma once

#include "netlist/netlist.hpp"

namespace pts::timing {

struct DelayModel {
  /// Interconnect delay per unit of net half-perimeter (ns per grid unit).
  double wire_delay_per_unit = 0.05;

  /// Placement-independent delay contributed by `cell` (0 for pads). Reads
  /// the CSR topology, the one formula STA, path extraction and slack share.
  double cell_delay(const netlist::Netlist& netlist, netlist::CellId cell) const {
    const netlist::Topology& topo = netlist.topology();
    if (!topo.cell_movable(cell)) return 0.0;
    const netlist::NetId out = topo.out_net(cell);
    const double fanout =
        out == netlist::kNoNet ? 0.0 : static_cast<double>(topo.sinks(out).size());
    return topo.cell_intrinsic_delay(cell) + topo.cell_load_factor(cell) * fanout;
  }

  /// Placement-dependent delay of a net with half-perimeter `hpwl`.
  double wire_delay(double hpwl) const { return wire_delay_per_unit * hpwl; }
};

}  // namespace pts::timing
