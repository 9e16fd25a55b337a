#include "timing/slack.hpp"

#include <algorithm>
#include <cmath>

namespace pts::timing {

using netlist::CellId;
using netlist::CellKind;
using netlist::kNoNet;
using netlist::NetId;

SlackResult analyze_slack(const netlist::Netlist& netlist,
                          const placement::HpwlState& hpwl, const DelayModel& model,
                          double clock_target) {
  SlackResult result;
  const StaResult sta = run_sta(netlist, hpwl, model);
  result.arrival = sta.arrival;
  result.critical_delay = sta.critical_delay;
  result.target = clock_target > 0.0 ? clock_target : sta.critical_delay;

  // Backward pass in reverse topological order:
  //   required(PO)  = target
  //   required(c)   = min over fanout sinks s of
  //                   required(s) - cell_delay(s) - wire_delay(out_net(c))
  const auto& topo = netlist.topological_order();
  const netlist::Topology& topology = netlist.topology();
  result.required.assign(netlist.num_cells(),
                         std::numeric_limits<double>::infinity());
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const CellId cell = *it;
    const auto& c = netlist.cell(cell);
    if (c.kind == CellKind::PrimaryOutput) {
      result.required[cell] = result.target;
      continue;
    }
    if (c.out_net == kNoNet) continue;
    const double wire = model.wire_delay(hpwl.net_hpwl(c.out_net));
    double req = std::numeric_limits<double>::infinity();
    for (CellId sink : topology.sinks(c.out_net)) {
      req = std::min(req, result.required[sink] -
                              model.cell_delay(netlist, sink) - wire);
    }
    result.required[cell] = req;
  }

  result.slack.resize(netlist.num_cells());
  double worst = std::numeric_limits<double>::infinity();
  for (CellId cell = 0; cell < netlist.num_cells(); ++cell) {
    result.slack[cell] = result.required[cell] - result.arrival[cell];
    if (netlist.cell(cell).kind == CellKind::PrimaryOutput) {
      worst = std::min(worst, result.slack[cell]);
    }
  }
  result.worst_slack = worst;

  // Net criticality: 1 - slack/target of the net's driver-side edge,
  // clamped to [0, 1]. The slack of a net is the minimum over its sinks of
  // (required(sink) - cell_delay(sink)) - (arrival(driver) + wire).
  result.net_criticality.assign(netlist.num_nets(), 0.0);
  const double span = result.target > 0.0 ? result.target : 1.0;
  for (NetId net = 0; net < netlist.num_nets(); ++net) {
    const CellId driver = topology.driver(net);
    const double wire = model.wire_delay(hpwl.net_hpwl(net));
    double net_slack = std::numeric_limits<double>::infinity();
    for (CellId sink : topology.sinks(net)) {
      const double required_at_sink =
          result.required[sink] - model.cell_delay(netlist, sink);
      net_slack = std::min(net_slack,
                           required_at_sink - (result.arrival[driver] + wire));
    }
    const double criticality = 1.0 - net_slack / span;
    result.net_criticality[net] = std::clamp(criticality, 0.0, 1.0);
  }
  return result;
}

std::vector<double> criticality_weights(const SlackResult& slack, double strength,
                                        double gamma) {
  std::vector<double> weights(slack.net_criticality.size());
  for (std::size_t net = 0; net < weights.size(); ++net) {
    weights[net] =
        1.0 + strength * std::pow(slack.net_criticality[net], gamma);
  }
  return weights;
}

}  // namespace pts::timing
