#include "netlist/topology.hpp"

#include <algorithm>

#include "netlist/netlist.hpp"

namespace pts::netlist {

void Topology::build(const Netlist& netlist, std::span<const Connection> connections) {
  const std::size_t n_cells = netlist.num_cells();
  const std::size_t n_nets = netlist.num_nets();

  // net -> pins. Count each net's sinks, turn the counts (plus the driver's
  // slot) into each net's end, then scatter the connections backwards,
  // stepping every end down to its start: the sinks keep connect order and
  // the driver, placed last, lands first.
  pin_offsets_.assign(n_nets + 1, 0);
  for (const Connection& c : connections) ++pin_offsets_[c.net];
  std::uint32_t end = 0;
  for (NetId nid = 0; nid < n_nets; ++nid) {
    end += 1 + pin_offsets_[nid];
    pin_offsets_[nid] = end;
  }
  pin_offsets_[n_nets] = end;
  net_pins_.resize(end);
  for (auto c = connections.rbegin(); c != connections.rend(); ++c) {
    net_pins_[--pin_offsets_[c->net]] = c->sink;
  }
  net_weight_.resize(n_nets);
  for (NetId nid = 0; nid < n_nets; ++nid) {
    const Net& n = netlist.net(nid);
    net_pins_[--pin_offsets_[nid]] = n.driver;
    net_weight_[nid] = n.weight;
  }

  // cell -> incident nets, the same way: out net first, then every input
  // pin's net in connect order; then each slice is deduplicated in place in
  // first-seen order, which can only move slices toward the front.
  cell_net_offsets_.assign(n_cells + 1, 0);
  for (const Connection& c : connections) ++cell_net_offsets_[c.sink];
  end = 0;
  for (CellId id = 0; id < n_cells; ++id) {
    end += cell_net_offsets_[id] + (netlist.cell(id).out_net != kNoNet ? 1 : 0);
    cell_net_offsets_[id] = end;
  }
  cell_net_offsets_[n_cells] = end;
  cell_nets_.resize(end);
  for (auto c = connections.rbegin(); c != connections.rend(); ++c) {
    cell_nets_[--cell_net_offsets_[c->sink]] = c->net;
  }
  cell_out_net_.resize(n_cells);
  cell_width_.resize(n_cells);
  cell_intrinsic_delay_.resize(n_cells);
  cell_load_factor_.resize(n_cells);
  cell_movable_.resize(n_cells);
  for (CellId id = 0; id < n_cells; ++id) {
    const Cell& c = netlist.cell(id);
    if (c.out_net != kNoNet) cell_nets_[--cell_net_offsets_[id]] = c.out_net;
    cell_out_net_[id] = c.out_net;
    cell_width_[id] = static_cast<double>(c.width);
    cell_intrinsic_delay_[id] = c.intrinsic_delay;
    cell_load_factor_[id] = c.load_factor;
    cell_movable_[id] = c.movable() ? 1 : 0;
  }
  net_repeats_cell_.assign(n_nets, 0);
  std::uint32_t kept = 0;
  for (CellId id = 0; id < n_cells; ++id) {
    const std::uint32_t begin = cell_net_offsets_[id];
    const std::uint32_t stop = cell_net_offsets_[id + 1];
    cell_net_offsets_[id] = kept;
    const auto first = cell_nets_.begin() + kept;
    for (std::uint32_t i = begin; i < stop; ++i) {
      const NetId nid = cell_nets_[i];
      const auto last = cell_nets_.begin() + kept;
      if (std::find(first, last, nid) == last) {
        cell_nets_[kept++] = nid;
      } else {
        net_repeats_cell_[nid] = 1;  // this cell sinks nid on two inputs
      }
    }
  }
  cell_net_offsets_[n_cells] = kept;
  cell_nets_.resize(kept);
  cell_nets_.shrink_to_fit();  // a no-op unless some cell repeated a net
}

}  // namespace pts::netlist
