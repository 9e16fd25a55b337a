#include "netlist/generator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace pts::netlist {
namespace {

std::string indexed(const char* prefix, std::size_t i) {
  return std::string(prefix) + std::to_string(i);
}

}  // namespace

Netlist generate_circuit(const GeneratorConfig& config) {
  PTS_CHECK(config.num_gates >= 1);
  PTS_CHECK(config.num_primary_inputs >= 1);
  PTS_CHECK(config.num_primary_outputs >= 1);
  PTS_CHECK(config.max_fanin >= 1);
  PTS_CHECK(config.min_width >= 1 && config.max_width >= config.min_width);

  Rng rng(config.seed);
  NetlistBuilder builder(config.name);
  // Expected sizes; dangling nets may add a few POs and connections.
  const std::size_t num_nets = config.num_primary_inputs + config.num_gates;
  builder.reserve(
      num_nets + config.num_primary_outputs, num_nets,
      static_cast<std::size_t>(static_cast<double>(config.num_gates) *
                               std::max(1.0, config.avg_fanin)) +
          config.num_primary_outputs);

  // Primary inputs, each driving a net. `nets` lists every net in creation
  // order; `net_source_gate[i]` is the index of the gate driving nets[i]
  // (or SIZE_MAX for PI nets) so PO wiring can respect topological order.
  std::vector<NetId> nets;
  std::vector<std::size_t> net_source_gate;
  std::vector<char> used_as_input;
  nets.reserve(num_nets);
  net_source_gate.reserve(num_nets);
  used_as_input.reserve(num_nets);
  for (std::size_t i = 0; i < config.num_primary_inputs; ++i) {
    const CellId pi = builder.add_primary_input(indexed("pi", i));
    nets.push_back(builder.add_net(indexed("npi", i), pi));
    net_source_gate.push_back(static_cast<std::size_t>(-1));
    used_as_input.push_back(0);
  }

  // Gates in topological creation order; inputs drawn from earlier nets.
  std::vector<CellId> gates;
  std::vector<std::size_t> fanin_of;  // current fanin per gate
  std::vector<std::size_t> chosen;    // one gate's inputs, indices into `nets`
  gates.reserve(config.num_gates);
  fanin_of.reserve(config.num_gates);
  for (std::size_t g = 0; g < config.num_gates; ++g) {
    const int width =
        static_cast<int>(rng.between(config.min_width, config.max_width));
    const double delay =
        std::max(0.05, rng.normal(config.delay_mean, config.delay_stddev));
    const double load = rng.uniform(config.load_min, config.load_max);
    const CellId gate = builder.add_gate(indexed("g", g), width, delay, load);
    gates.push_back(gate);

    // Fanin: geometric draw with mean ~avg_fanin, clamped to [1, max_fanin]
    // and to the number of available source nets.
    const double mean_extra = std::max(0.0, config.avg_fanin - 1.0);
    std::size_t fanin = 1;
    while (fanin < config.max_fanin &&
           rng.chance(mean_extra / (1.0 + mean_extra))) {
      ++fanin;
    }
    fanin = std::min(fanin, nets.size());

    chosen.clear();
    while (chosen.size() < fanin) {
      std::size_t idx;
      if (rng.chance(config.locality) && nets.size() > 1) {
        const std::size_t window = std::min(config.locality_window, nets.size());
        idx = nets.size() - 1 - static_cast<std::size_t>(rng.below(window));
      } else {
        idx = static_cast<std::size_t>(rng.below(nets.size()));
      }
      if (std::find(chosen.begin(), chosen.end(), idx) == chosen.end())
        chosen.push_back(idx);
    }
    for (std::size_t idx : chosen) {
      builder.connect_input(nets[idx], gate);
      used_as_input[idx] = 1;
    }
    fanin_of.push_back(chosen.size());

    const double weight = rng.chance(config.critical_net_fraction) ? 2.0 : 1.0;
    nets.push_back(builder.add_net(indexed("n", g), gate, weight));
    net_source_gate.push_back(g);
    used_as_input.push_back(0);
  }

  // Primary outputs. Dangling nets (never used as a gate input) must be
  // sunk somewhere; POs take them first, preferring late nets so output
  // logic depth looks circuit-like. If there are more dangling nets than
  // requested POs, surplus dangling nets feed extra gate inputs where a
  // topologically later gate exists, otherwise extra POs are appended.
  std::vector<std::size_t> dangling;  // indices into `nets`, ascending
  dangling.reserve(static_cast<std::size_t>(
      std::count(used_as_input.begin(), used_as_input.end(), 0)));
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (!used_as_input[i]) dangling.push_back(i);
  }
  PTS_CHECK(!dangling.empty());  // the last gate's net is always dangling

  std::size_t po_count = 0;
  auto add_po = [&](NetId net) {
    const CellId po = builder.add_primary_output(indexed("po", po_count));
    builder.connect_input(net, po);
    ++po_count;
  };

  // Latest dangling nets become the requested POs.
  const std::size_t reserved_for_po =
      std::min(config.num_primary_outputs, dangling.size());
  for (std::size_t k = 0; k < reserved_for_po; ++k) {
    add_po(nets[dangling[dangling.size() - 1 - k]]);
  }
  dangling.resize(dangling.size() - reserved_for_po);

  // Remaining dangling nets: feed a later gate that still has fanin
  // capacity (keeps the graph acyclic because gate indices increase along
  // `gates` and respects max_fanin); otherwise sink them with extra POs.
  //
  // The scan fallback shares one monotone cursor across all dangling nets:
  // gate fanins only ever grow, so a gate observed full stays full, and the
  // dangling list is in ascending net order so `first_later` never
  // decreases — the cursor finds the same first-gate-with-capacity a fresh
  // forward scan would, in O(gates) amortized over the whole pass instead
  // of O(gates) per net (the scale-tier circuits made the difference
  // quadratic-vs-linear).
  std::size_t scan_cursor = 0;
  for (std::size_t idx : dangling) {
    const std::size_t src_gate = net_source_gate[idx];
    const std::size_t first_later =
        src_gate == static_cast<std::size_t>(-1) ? 0 : src_gate + 1;
    std::size_t target = gates.size();
    if (first_later < gates.size()) {
      // A few random probes, then the cursor scan for spare capacity.
      const std::size_t span = gates.size() - first_later;
      for (int probe = 0; probe < 8 && target == gates.size(); ++probe) {
        const auto t = first_later + static_cast<std::size_t>(rng.below(span));
        if (fanin_of[t] < config.max_fanin) target = t;
      }
      if (target == gates.size()) {
        scan_cursor = std::max(scan_cursor, first_later);
        while (scan_cursor < gates.size() &&
               fanin_of[scan_cursor] >= config.max_fanin) {
          ++scan_cursor;
        }
        if (scan_cursor < gates.size()) target = scan_cursor;
      }
    }
    if (target < gates.size()) {
      builder.connect_input(nets[idx], gates[target]);
      ++fanin_of[target];
    } else {
      add_po(nets[idx]);
    }
  }

  // Top up POs if fewer dangling nets existed than requested: duplicate
  // sinks on random gate nets (a net may fan out to several pads).
  while (po_count < config.num_primary_outputs) {
    const std::size_t idx =
        config.num_primary_inputs +
        static_cast<std::size_t>(rng.below(config.num_gates));
    add_po(nets[idx]);
  }

  return std::move(builder).build();
}

}  // namespace pts::netlist
