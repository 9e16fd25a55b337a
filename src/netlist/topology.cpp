#include "netlist/topology.hpp"

#include <algorithm>

#include "netlist/netlist.hpp"

namespace pts::netlist {

void Topology::build(const Netlist& netlist) {
  const std::size_t n_cells = netlist.num_cells();
  const std::size_t n_nets = netlist.num_nets();

  // net -> pins, driver first then sinks in net order.
  pin_offsets_.assign(n_nets + 1, 0);
  for (NetId nid = 0; nid < n_nets; ++nid) {
    pin_offsets_[nid + 1] =
        pin_offsets_[nid] + static_cast<std::uint32_t>(netlist.net(nid).pin_count());
  }
  net_pins_.clear();
  net_pins_.reserve(pin_offsets_.back());
  net_weight_.resize(n_nets);
  net_repeats_cell_.assign(n_nets, 0);
  for (NetId nid = 0; nid < n_nets; ++nid) {
    const Net& n = netlist.net(nid);
    net_pins_.push_back(n.driver);
    net_pins_.insert(net_pins_.end(), n.sinks.begin(), n.sinks.end());
    net_weight_[nid] = n.weight;
  }
  PTS_CHECK(net_pins_.size() == pin_offsets_.back());

  // cell -> incident nets: out net first, then input nets deduplicated in
  // first-seen order (the exact order the old Netlist::nets_of index used).
  cell_net_offsets_.assign(n_cells + 1, 0);
  cell_nets_.clear();
  cell_nets_.reserve(n_cells + net_pins_.size());
  cell_out_net_.resize(n_cells);
  cell_width_.resize(n_cells);
  cell_intrinsic_delay_.resize(n_cells);
  cell_load_factor_.resize(n_cells);
  cell_movable_.resize(n_cells);
  for (CellId id = 0; id < n_cells; ++id) {
    const Cell& c = netlist.cell(id);
    const std::size_t begin = cell_nets_.size();
    if (c.out_net != kNoNet) cell_nets_.push_back(c.out_net);
    for (NetId nid : c.in_nets) {
      const auto first = cell_nets_.begin() + static_cast<std::ptrdiff_t>(begin);
      if (std::find(first, cell_nets_.end(), nid) == cell_nets_.end()) {
        cell_nets_.push_back(nid);
      } else {
        net_repeats_cell_[nid] = 1;  // this cell sinks nid on two inputs
      }
    }
    cell_net_offsets_[id + 1] = static_cast<std::uint32_t>(cell_nets_.size());
    cell_out_net_[id] = c.out_net;
    cell_width_[id] = static_cast<double>(c.width);
    cell_intrinsic_delay_[id] = c.intrinsic_delay;
    cell_load_factor_[id] = c.load_factor;
    cell_movable_[id] = c.movable() ? 1 : 0;
  }
  cell_nets_.shrink_to_fit();
}

}  // namespace pts::netlist
