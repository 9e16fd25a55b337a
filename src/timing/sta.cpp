#include "timing/sta.hpp"

#include <algorithm>

namespace pts::timing {

using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

namespace {

template <class NetDelay>
StaResult run_sta_impl(const netlist::Netlist& netlist, NetDelay net_delay,
                       const DelayModel& model) {
  const netlist::Topology& topo = netlist.topology();
  StaResult result;
  result.arrival.assign(netlist.num_cells(), 0.0);
  // Predecessor on the max-arrival path, for path extraction.
  std::vector<CellId> pred(netlist.num_cells(), netlist::kNoCell);

  for (CellId cell : netlist.topological_order()) {
    double max_in = 0.0;
    CellId best_pred = netlist::kNoCell;
    for (NetId net : topo.in_nets(cell)) {
      const CellId driver = topo.driver(net);
      const double t = result.arrival[driver] + net_delay(net);
      if (t > max_in || best_pred == netlist::kNoCell) {
        max_in = t;
        best_pred = driver;
      }
    }
    pred[cell] = best_pred;
    result.arrival[cell] = max_in + model.cell_delay(netlist, cell);
  }

  CellId worst_po = netlist::kNoCell;
  for (CellId cell : netlist.pad_cells()) {
    if (netlist.cell(cell).kind != CellKind::PrimaryOutput) continue;
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

}  // namespace

StaResult run_sta(const netlist::Netlist& netlist, const placement::HpwlState& hpwl,
                  const DelayModel& model) {
  return run_sta_impl(
      netlist,
      [&](NetId net) { return model.wire_delay(hpwl.net_hpwl(net)); }, model);
}

StaResult run_sta_uniform(const netlist::Netlist& netlist, double uniform_net_delay,
                          const DelayModel& model) {
  return run_sta_impl(
      netlist, [&](NetId) { return uniform_net_delay; }, model);
}

}  // namespace pts::timing
