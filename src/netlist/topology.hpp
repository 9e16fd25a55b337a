// Flat CSR (compressed-sparse-row) view of the netlist pin graph: the
// netlist's one adjacency.
//
// The Cell / Net structs hold only per-object fields (names, kinds, widths,
// delays, weights, a cell's out net and a net's driver). Who sinks which
// net lives here, in contiguous arrays the search inner loop reads without
// chasing a pointer per net (DESIGN.md §7):
//
//   pin_offsets / net_pins    net -> pins, driver first, then the sinks in
//                             connect order (so walking pins(net) visits
//                             cells in exactly the order compute_box always
//                             did — summation/min-max order is part of the
//                             API)
//   cell_net_offsets / cell_nets
//                             cell -> incident nets, out_net first, then
//                             input nets deduplicated in first-seen (connect)
//                             order; the slice after the out net is
//                             in_nets(cell)
//   cell_out_net              per-cell driven net (SoA copy of Cell::out_net)
//   net_weight                per-net weight (SoA copy of Net::weight)
//   net_repeats_cell          per-net flag: some cell is listed twice
//                             (a gate sinking the net on two inputs)
//   cell_width / cell_intrinsic_delay / cell_load_factor / cell_movable
//                             SoA copies of the Cell fields hot loops read
//
// NetlistBuilder records each connect_input as one (net, sink) Connection;
// Netlist::finalize() validates them and Topology::build() turns them into
// both indexes with stable counting sorts. The view is immutable afterwards;
// all workers of a parallel search share it read-only, and the topological
// sort, STA, critical-path extraction, DelayModel, the .net writer and
// content_hash all read it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/ids.hpp"
#include "support/check.hpp"

namespace pts::netlist {

class Netlist;

/// One sink pin, as NetlistBuilder::connect_input records it: `sink` takes
/// `net` on its next input pin.
struct Connection {
  NetId net;
  CellId sink;
};

class Topology {
 public:
  std::size_t num_cells() const {
    return cell_net_offsets_.empty() ? 0 : cell_net_offsets_.size() - 1;
  }
  std::size_t num_nets() const {
    return pin_offsets_.empty() ? 0 : pin_offsets_.size() - 1;
  }
  /// Total pin count: every net's driver and sinks.
  std::size_t num_pins() const { return net_pins_.size(); }

  /// All pins of `net`: the driver first, then the sinks in connect order.
  std::span<const CellId> pins(NetId net) const {
    PTS_DCHECK(net < num_nets());  // also rejects the kNoNet sentinel
    return {net_pins_.data() + pin_offsets_[net],
            net_pins_.data() + pin_offsets_[net + 1]};
  }
  CellId driver(NetId net) const {
    PTS_DCHECK(net < num_nets());
    return net_pins_[pin_offsets_[net]];
  }
  std::span<const CellId> sinks(NetId net) const { return pins(net).subspan(1); }

  /// Nets incident to `cell` (out net first, inputs deduplicated) — the CSR
  /// storage behind Netlist::nets_of().
  std::span<const NetId> nets_of(CellId cell) const {
    PTS_DCHECK(cell < num_cells());  // also rejects the kNoCell sentinel
    return {cell_nets_.data() + cell_net_offsets_[cell],
            cell_nets_.data() + cell_net_offsets_[cell + 1]};
  }

  /// Net driven by `cell`; kNoNet for primary outputs.
  NetId out_net(CellId cell) const {
    PTS_DCHECK(cell < cell_out_net_.size());
    return cell_out_net_[cell];
  }
  /// Nets feeding `cell`'s input pins, deduplicated in first-seen order: a
  /// net sunk on two pins is listed once, which cannot change a max over
  /// the inputs or its first argmax.
  std::span<const NetId> in_nets(CellId cell) const {
    return nets_of(cell).subspan(out_net(cell) == kNoNet ? 0 : 1);
  }

  double net_weight(NetId net) const {
    PTS_DCHECK(net < net_weight_.size());
    return net_weight_[net];
  }
  /// True when some cell appears more than once in pins(net).
  bool net_repeats_cell(NetId net) const {
    PTS_DCHECK(net < net_repeats_cell_.size());
    return net_repeats_cell_[net] != 0;
  }
  /// Cell width as a double (the form every geometry computation uses).
  double cell_width(CellId cell) const {
    PTS_DCHECK(cell < cell_width_.size());
    return cell_width_[cell];
  }
  double cell_intrinsic_delay(CellId cell) const {
    PTS_DCHECK(cell < cell_intrinsic_delay_.size());
    return cell_intrinsic_delay_[cell];
  }
  double cell_load_factor(CellId cell) const {
    PTS_DCHECK(cell < cell_load_factor_.size());
    return cell_load_factor_[cell];
  }
  bool cell_movable(CellId cell) const {
    PTS_DCHECK(cell < cell_movable_.size());
    return cell_movable_[cell] != 0;
  }

 private:
  friend class Netlist;
  /// Fills every array from the netlist's cells and nets and the builder's
  /// connections, by a stable counting sort of the connections on net and
  /// on sink.
  void build(const Netlist& netlist, std::span<const Connection> connections);

  std::vector<std::uint32_t> pin_offsets_;       // num_nets + 1
  std::vector<CellId> net_pins_;                 // driver-first pin lists
  std::vector<std::uint32_t> cell_net_offsets_;  // num_cells + 1
  std::vector<NetId> cell_nets_;                 // deduplicated incident nets
  std::vector<NetId> cell_out_net_;
  std::vector<double> net_weight_;
  std::vector<std::uint8_t> net_repeats_cell_;
  std::vector<double> cell_width_;
  std::vector<double> cell_intrinsic_delay_;
  std::vector<double> cell_load_factor_;
  std::vector<std::uint8_t> cell_movable_;
};

}  // namespace pts::netlist
