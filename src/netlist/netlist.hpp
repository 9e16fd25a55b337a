// Circuit netlist representation.
//
// A netlist is a DAG of cells (primary-input pads, logic gates, primary-
// output pads) connected by nets. Every net has exactly one driver cell and
// one or more sink cells. Gates are the movable objects during placement;
// pads are fixed on the layout periphery.
//
// The representation is index-based (CellId / NetId are dense indices) so
// placement and cost code can use flat arrays.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/ids.hpp"
#include "netlist/topology.hpp"
#include "support/check.hpp"

namespace pts::netlist {

enum class CellKind : std::uint8_t {
  PrimaryInput,   ///< pad; drives one net, fixed on the periphery
  Gate,           ///< movable standard cell
  PrimaryOutput,  ///< pad; sinks one net, fixed on the periphery
};

struct Cell {
  std::string name;
  CellKind kind = CellKind::Gate;
  /// Layout width in abstract grid units (pads have width 1).
  int width = 1;
  /// Intrinsic switching delay of the cell (ns).
  double intrinsic_delay = 1.0;
  /// Additional delay per fanout sink on the driven net (ns).
  double load_factor = 0.1;
  /// Net driven by this cell (kNoNet for primary outputs). The nets
  /// feeding its input pins live in the Topology (in_nets, nets_of).
  NetId out_net = kNoNet;

  bool movable() const { return kind == CellKind::Gate; }
};

struct Net {
  std::string name;
  /// The sinks live in the Topology (sinks, pins).
  CellId driver = kNoCell;
  /// Relative importance (switching activity); scales wirelength cost.
  double weight = 1.0;
};

/// Immutable, validated netlist. Build via NetlistBuilder or the generator.
class Netlist {
 public:
  const std::string& name() const { return name_; }

  std::size_t num_cells() const { return cells_.size(); }
  std::size_t num_nets() const { return nets_.size(); }
  std::size_t num_movable() const { return movable_.size(); }
  std::size_t num_pins() const;

  const Cell& cell(CellId id) const {
    PTS_DCHECK(id < cells_.size());
    return cells_[id];
  }
  const Net& net(NetId id) const {
    PTS_DCHECK(id < nets_.size());
    return nets_[id];
  }
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<Net>& nets() const { return nets_; }

  /// Ids of movable cells (gates), in id order.
  const std::vector<CellId>& movable_cells() const { return movable_; }
  /// Ids of pads (PI + PO), in id order.
  const std::vector<CellId>& pad_cells() const { return pads_; }

  /// All nets incident to `id` (out_net first, then the input nets),
  /// deduplicated. Thin forward over the CSR topology storage.
  std::span<const NetId> nets_of(CellId id) const { return topology_.nets_of(id); }

  /// The netlist's adjacency: the flat CSR pin graph plus SoA copies of the
  /// hot fields. Built once by the builder; immutable and shareable across
  /// workers.
  const Topology& topology() const { return topology_; }

  std::optional<CellId> find_cell(std::string_view name) const;

  /// Total movable-cell width (layout sizing input).
  std::int64_t total_movable_width() const { return total_movable_width_; }

  /// Cells in a topological order (drivers before sinks). Guaranteed to
  /// exist: construction rejects cyclic netlists.
  const std::vector<CellId>& topological_order() const { return topo_; }

  /// Longest path length in cells (logic depth), useful for generators and
  /// sanity checks.
  std::size_t logic_depth() const { return logic_depth_; }

 private:
  friend class NetlistBuilder;
  Netlist() = default;

  /// Validates the circuit and builds the Topology from `connections`;
  /// returns the first violated invariant, or an empty string.
  std::string finalize(std::span<const Connection> connections);

  std::string name_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<CellId> movable_;
  std::vector<CellId> pads_;
  Topology topology_;
  std::vector<CellId> topo_;
  std::int64_t total_movable_width_ = 0;
  std::size_t logic_depth_ = 0;
};

/// Outcome of NetlistBuilder::try_build: ok() iff `netlist` is engaged;
/// otherwise `error` names the first invariant the circuit breaks.
struct BuildResult {
  std::optional<Netlist> netlist;
  std::string error;

  bool ok() const { return netlist.has_value(); }
};

/// Incremental netlist construction with validation at build time.
///
/// Usage:
///   NetlistBuilder b("adder");
///   auto a = b.add_primary_input("a");
///   auto g = b.add_gate("g1", /*width=*/2, /*delay=*/0.8, /*load=*/0.05);
///   auto n = b.add_net("n1", a);
///   b.connect_input(n, g);
///   ...
///   Netlist nl = std::move(b).build();
///
/// The add_* and connect_input calls abort on a misuse they can see at once
/// (a PO driving a net, a second net on one driver, a PI as a sink, a
/// self-loop); whole-circuit invariants wait for try_build()/build().
class NetlistBuilder {
 public:
  explicit NetlistBuilder(std::string name);

  /// Reserves room for the expected counts. Optional: it only spares the
  /// regrowth of the builder's arrays.
  void reserve(std::size_t cells, std::size_t nets, std::size_t connections);

  CellId add_primary_input(std::string name);
  CellId add_primary_output(std::string name);
  CellId add_gate(std::string name, int width, double intrinsic_delay,
                  double load_factor);

  /// Creates a net driven by `driver` (PI or gate). A gate may drive only
  /// one net.
  NetId add_net(std::string name, CellId driver, double weight = 1.0);

  /// Adds `sink` (gate or PO) as the next sink of `net`, on its next input
  /// pin. Connect order is kept: it orders pins(net) and nets_of(sink).
  void connect_input(NetId net, CellId sink);

  std::size_t num_cells() const { return netlist_.cells_.size(); }
  std::size_t num_nets() const { return netlist_.nets_.size(); }
  const Cell& cell(CellId id) const {
    PTS_CHECK(id < netlist_.cells_.size());
    return netlist_.cells_[id];
  }

  /// Validates and finalizes. Checks: names are unique, every net has >= 1
  /// sink, every gate has >= 1 input and drives a net, every PI drives a
  /// net, every PO sinks exactly one net, and the cell graph is acyclic.
  /// A failed check is returned as BuildResult::error, never an abort.
  BuildResult try_build() &&;

  /// try_build() for trusted, in-process construction: aborts with the
  /// error text.
  Netlist build() &&;

 private:
  CellId add_cell(std::string name, CellKind kind, int width, double delay,
                  double load);

  Netlist netlist_;
  std::vector<Connection> connections_;  // every connect_input, in order
};

}  // namespace pts::netlist
