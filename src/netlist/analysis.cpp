#include "netlist/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pts::netlist {
namespace {

DistributionSummary summarize(const std::vector<std::size_t>& values) {
  DistributionSummary s;
  if (values.empty()) return s;
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (std::size_t v : values) sum += static_cast<double>(v);
  s.mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (std::size_t v : values) {
    const double d = static_cast<double>(v) - s.mean;
    var += d * d;
  }
  s.stddev = values.size() > 1
                 ? std::sqrt(var / static_cast<double>(values.size() - 1))
                 : 0.0;
  constexpr std::size_t kBuckets = 17;  // 0..15 and 16+
  s.histogram.assign(kBuckets, 0);
  for (std::size_t v : values) s.histogram[std::min(v, kBuckets - 1)] += 1;
  return s;
}

}  // namespace

CircuitStats analyze_circuit(const Netlist& netlist) {
  CircuitStats stats;
  stats.cells = netlist.num_cells();
  stats.gates = netlist.num_movable();
  stats.nets = netlist.num_nets();
  stats.pins = netlist.num_pins();
  stats.logic_depth = netlist.logic_depth();
  stats.total_gate_width = netlist.total_movable_width();
  for (CellId pad : netlist.pad_cells()) {
    (netlist.cell(pad).kind == CellKind::PrimaryInput ? stats.primary_inputs
                                                      : stats.primary_outputs) += 1;
  }

  // Input pins per cell, counted from the sink side so that a net sunk on
  // two pins of one gate counts twice.
  const Topology& topo = netlist.topology();
  std::vector<std::size_t> net_degree, input_pins(netlist.num_cells(), 0);
  net_degree.reserve(netlist.num_nets());
  for (NetId net = 0; net < netlist.num_nets(); ++net) {
    net_degree.push_back(topo.pins(net).size());
    for (CellId sink : topo.sinks(net)) ++input_pins[sink];
  }
  stats.net_degree = summarize(net_degree);

  std::vector<std::size_t> fanin, fanout;
  fanin.reserve(stats.gates);
  fanout.reserve(stats.gates);
  for (CellId gate : netlist.movable_cells()) {
    fanin.push_back(input_pins[gate]);
    fanout.push_back(topo.sinks(topo.out_net(gate)).size());
  }
  stats.gate_fanin = summarize(fanin);
  stats.gate_fanout = summarize(fanout);

  stats.avg_pins_per_net =
      stats.nets > 0 ? static_cast<double>(stats.pins) /
                           static_cast<double>(stats.nets)
                     : 0.0;
  stats.avg_pins_per_cell =
      stats.cells > 0 ? static_cast<double>(stats.pins) /
                            static_cast<double>(stats.cells)
                      : 0.0;
  return stats;
}

std::string format_stats(const CircuitStats& stats) {
  std::ostringstream os;
  os << "cells: " << stats.cells << " (" << stats.gates << " gates, "
     << stats.primary_inputs << " PIs, " << stats.primary_outputs << " POs)\n";
  os << "nets: " << stats.nets << ", pins: " << stats.pins
     << ", pins/net: " << stats.avg_pins_per_net
     << ", pins/cell: " << stats.avg_pins_per_cell << "\n";
  os << "logic depth: " << stats.logic_depth
     << ", total gate width: " << stats.total_gate_width << "\n";
  auto line = [&](const char* name, const DistributionSummary& d) {
    os << name << ": mean " << d.mean << " sd " << d.stddev << " range ["
       << d.min << ", " << d.max << "]\n";
  };
  line("net degree", stats.net_degree);
  line("gate fanin", stats.gate_fanin);
  line("gate fanout", stats.gate_fanout);
  return os.str();
}

}  // namespace pts::netlist
