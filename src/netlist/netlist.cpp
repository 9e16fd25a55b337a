#include "netlist/netlist.hpp"

#include <algorithm>
#include <bit>
#include <functional>

namespace pts::netlist {

namespace {

/// Returns an error naming the first name that repeats an earlier one,
/// checking cells and then nets in id order. The table is open-addressed
/// with linear probing; each 8-byte slot holds the top 32 bits of the
/// name's hash and its index (cells first, then nets), so no name is
/// copied, and its capacity is a power of two at least twice the name count.
std::string check_unique_names(const std::vector<Cell>& cells,
                               const std::vector<Net>& nets) {
  struct Slot {
    std::uint32_t tag;
    std::uint32_t index;
  };
  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  const std::size_t count = cells.size() + nets.size();
  PTS_CHECK(count < kEmpty);
  std::vector<Slot> table(std::bit_ceil(2 * count), Slot{0, kEmpty});
  const std::size_t mask = table.size() - 1;
  const auto name_of = [&](std::uint32_t index) -> std::string_view {
    return index < cells.size() ? cells[index].name
                                : nets[index - cells.size()].name;
  };
  const auto insert = [&](std::string_view name, std::uint32_t index) {
    const std::uint64_t hash = std::hash<std::string_view>{}(name);
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      Slot& slot = table[s];
      if (slot.index == kEmpty) {
        slot = {tag, index};
        return true;
      }
      if (slot.tag == tag && name_of(slot.index) == name) return false;
    }
  };
  std::uint32_t index = 0;
  for (const auto& c : cells) {
    if (!insert(c.name, index++)) return "duplicate cell name '" + c.name + "'";
  }
  for (const auto& n : nets) {
    if (!insert(n.name, index++)) return "duplicate net name '" + n.name + "'";
  }
  return {};
}

}  // namespace

std::size_t Netlist::num_pins() const { return topology_.num_pins(); }

std::optional<CellId> Netlist::find_cell(std::string_view name) const {
  for (CellId id = 0; id < cells_.size(); ++id) {
    if (cells_[id].name == name) return id;
  }
  return std::nullopt;
}

std::string Netlist::finalize(std::span<const Connection> connections) {
  const auto n_cells = cells_.size();
  if (std::string error = check_unique_names(cells_, nets_); !error.empty()) {
    return error;
  }

  // Input pins per cell, a net sunk on two pins counted twice: the cell
  // checks read it, and the Kahn sort below takes it as the in-degrees.
  std::vector<std::uint32_t> indegree(n_cells, 0);
  for (const Connection& c : connections) ++indegree[c.sink];

  const auto gates = static_cast<std::size_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [](const Cell& c) { return c.kind == CellKind::Gate; }));
  movable_.clear();
  movable_.reserve(gates);
  pads_.clear();
  pads_.reserve(n_cells - gates);
  total_movable_width_ = 0;
  // add_gate, add_net and connect_input already refused a non-positive
  // width, a PO driver, a second out net, a PI sink and a self-loop.
  for (CellId id = 0; id < n_cells; ++id) {
    const Cell& c = cells_[id];
    switch (c.kind) {
      case CellKind::PrimaryInput:
        if (c.out_net == kNoNet) return "PI '" + c.name + "' does not drive a net";
        pads_.push_back(id);
        break;
      case CellKind::PrimaryOutput:
        if (indegree[id] != 1) {
          return "PO '" + c.name + "' must sink exactly one net, sinks " +
                 std::to_string(indegree[id]);
        }
        pads_.push_back(id);
        break;
      case CellKind::Gate:
        if (indegree[id] == 0) return "gate '" + c.name + "' has no inputs";
        if (c.out_net == kNoNet) return "gate '" + c.name + "' does not drive a net";
        movable_.push_back(id);
        total_movable_width_ += c.width;
        break;
    }
  }

  topology_.build(*this, connections);

  for (NetId nid = 0; nid < nets_.size(); ++nid) {
    const Net& n = nets_[nid];
    if (topology_.sinks(nid).empty()) return "net '" + n.name + "' has no sinks";
    if (!(n.weight > 0.0)) return "net '" + n.name + "' weight must be positive";
  }

  // Kahn topological sort over the CSR (edge: net driver -> sink). In-degrees
  // count sink pins, so a gate sinking one net on two pins waits for both
  // decrements; the frontier is LIFO.
  topo_.clear();
  topo_.reserve(n_cells);
  std::vector<std::uint32_t> depth(n_cells, 0);
  std::vector<CellId> frontier;
  frontier.reserve(n_cells);
  for (CellId id = 0; id < n_cells; ++id) {
    if (indegree[id] == 0) frontier.push_back(id);
  }
  while (!frontier.empty()) {
    const CellId id = frontier.back();
    frontier.pop_back();
    topo_.push_back(id);
    const NetId out = topology_.out_net(id);
    if (out == kNoNet) continue;
    for (CellId sink : topology_.sinks(out)) {
      depth[sink] = std::max(depth[sink], depth[id] + 1);
      PTS_CHECK(indegree[sink] > 0);
      if (--indegree[sink] == 0) frontier.push_back(sink);
    }
  }
  if (topo_.size() != n_cells) return "netlist contains a combinational cycle";
  logic_depth_ = depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());
  return {};
}

NetlistBuilder::NetlistBuilder(std::string name) { netlist_.name_ = std::move(name); }

void NetlistBuilder::reserve(std::size_t cells, std::size_t nets,
                             std::size_t connections) {
  netlist_.cells_.reserve(cells);
  netlist_.nets_.reserve(nets);
  connections_.reserve(connections);
}

CellId NetlistBuilder::add_cell(std::string name, CellKind kind, int width,
                                double delay, double load) {
  Cell& c = netlist_.cells_.emplace_back();
  c.name = std::move(name);
  c.kind = kind;
  c.width = width;
  c.intrinsic_delay = delay;
  c.load_factor = load;
  return static_cast<CellId>(netlist_.cells_.size() - 1);
}

CellId NetlistBuilder::add_primary_input(std::string name) {
  return add_cell(std::move(name), CellKind::PrimaryInput, 1, 0.0, 0.0);
}

CellId NetlistBuilder::add_primary_output(std::string name) {
  return add_cell(std::move(name), CellKind::PrimaryOutput, 1, 0.0, 0.0);
}

CellId NetlistBuilder::add_gate(std::string name, int width, double intrinsic_delay,
                                double load_factor) {
  PTS_CHECK(width >= 1);
  PTS_CHECK(intrinsic_delay >= 0.0);
  PTS_CHECK(load_factor >= 0.0);
  return add_cell(std::move(name), CellKind::Gate, width, intrinsic_delay,
                  load_factor);
}

NetId NetlistBuilder::add_net(std::string name, CellId driver, double weight) {
  PTS_CHECK(driver < netlist_.cells_.size());
  Cell& d = netlist_.cells_[driver];
  PTS_CHECK_MSG(d.kind != CellKind::PrimaryOutput, "PO cannot drive a net");
  PTS_CHECK_MSG(d.out_net == kNoNet, "cell already drives a net");
  Net& n = netlist_.nets_.emplace_back();
  n.name = std::move(name);
  n.driver = driver;
  n.weight = weight;
  const auto nid = static_cast<NetId>(netlist_.nets_.size() - 1);
  d.out_net = nid;
  return nid;
}

void NetlistBuilder::connect_input(NetId net, CellId sink) {
  PTS_CHECK(net < netlist_.nets_.size());
  PTS_CHECK(sink < netlist_.cells_.size());
  PTS_CHECK_MSG(netlist_.cells_[sink].kind != CellKind::PrimaryInput,
                "PI cannot have inputs");
  PTS_CHECK_MSG(netlist_.nets_[net].driver != sink, "self-loop net");
  connections_.push_back({net, sink});
}

BuildResult NetlistBuilder::try_build() && {
  BuildResult result;
  result.error = netlist_.finalize(connections_);
  if (result.error.empty()) result.netlist.emplace(std::move(netlist_));
  return result;
}

Netlist NetlistBuilder::build() && {
  BuildResult result = std::move(*this).try_build();
  PTS_CHECK_MSG(result.ok(), result.error.c_str());
  return std::move(*result.netlist);
}

}  // namespace pts::netlist
