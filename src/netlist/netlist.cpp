#include "netlist/netlist.hpp"

#include <algorithm>
#include <bit>
#include <functional>

namespace pts::netlist {

namespace {

/// Aborts on the first name that repeats an earlier one, checking cells and
/// then nets in id order. The table is open-addressed with linear probing;
/// each 8-byte slot holds the top 32 bits of the name's hash and its index
/// (cells first, then nets), so no name is copied, and its capacity is a
/// power of two at least twice the name count.
void check_unique_names(const std::vector<Cell>& cells,
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
    PTS_CHECK_MSG(insert(c.name, index++), "duplicate cell name");
  }
  for (const auto& n : nets) {
    PTS_CHECK_MSG(insert(n.name, index++), "duplicate net name");
  }
}

}  // namespace

std::size_t Netlist::num_pins() const { return topology_.num_pins(); }

std::optional<CellId> Netlist::find_cell(std::string_view name) const {
  for (CellId id = 0; id < cells_.size(); ++id) {
    if (cells_[id].name == name) return id;
  }
  return std::nullopt;
}

void Netlist::finalize() {
  const auto n_cells = cells_.size();
  movable_.clear();
  pads_.clear();
  total_movable_width_ = 0;

  check_unique_names(cells_, nets_);

  for (CellId id = 0; id < n_cells; ++id) {
    const Cell& c = cells_[id];
    PTS_CHECK_MSG(c.width >= 1, "cell width must be positive");
    switch (c.kind) {
      case CellKind::PrimaryInput:
        PTS_CHECK_MSG(c.in_nets.empty(), "PI cannot have inputs");
        PTS_CHECK_MSG(c.out_net != kNoNet, "PI must drive a net");
        pads_.push_back(id);
        break;
      case CellKind::PrimaryOutput:
        PTS_CHECK_MSG(c.in_nets.size() == 1, "PO must sink exactly one net");
        PTS_CHECK_MSG(c.out_net == kNoNet, "PO cannot drive a net");
        pads_.push_back(id);
        break;
      case CellKind::Gate:
        PTS_CHECK_MSG(!c.in_nets.empty(), "gate must have at least one input");
        PTS_CHECK_MSG(c.out_net != kNoNet, "gate must drive a net");
        movable_.push_back(id);
        total_movable_width_ += c.width;
        break;
    }
  }

  for (NetId nid = 0; nid < nets_.size(); ++nid) {
    const Net& n = nets_[nid];
    PTS_CHECK_MSG(n.driver != kNoCell, "net must have a driver");
    PTS_CHECK_MSG(!n.sinks.empty(), "net must have at least one sink");
    PTS_CHECK_MSG(cells_[n.driver].out_net == nid, "driver/out_net mismatch");
    PTS_CHECK_MSG(n.weight > 0.0, "net weight must be positive");
  }

  // Flatten the validated pin graph into the CSR view (incident-net index
  // included — a cell may legitimately take the same net on two pins, so
  // the index is deduplicated there).
  topology_.build(*this);

  // Kahn topological sort over the CSR (edge: net driver -> sink). In-degrees
  // count sink pins, so a gate sinking one net on two pins waits for both
  // decrements; the frontier is LIFO.
  std::vector<std::uint32_t> indegree(n_cells, 0);
  for (NetId nid = 0; nid < nets_.size(); ++nid) {
    for (CellId sink : topology_.sinks(nid)) ++indegree[sink];
  }
  topo_.clear();
  topo_.reserve(n_cells);
  std::vector<std::uint32_t> depth(n_cells, 0);
  std::vector<CellId> frontier;
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
  PTS_CHECK_MSG(topo_.size() == n_cells, "netlist contains a combinational cycle");
  logic_depth_ = depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());
}

NetlistBuilder::NetlistBuilder(std::string name) { netlist_.name_ = std::move(name); }

CellId NetlistBuilder::add_cell(std::string name, CellKind kind, int width,
                                double delay, double load) {
  Cell c;
  c.name = std::move(name);
  c.kind = kind;
  c.width = width;
  c.intrinsic_delay = delay;
  c.load_factor = load;
  netlist_.cells_.push_back(std::move(c));
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
  Net n;
  n.name = std::move(name);
  n.driver = driver;
  n.weight = weight;
  netlist_.nets_.push_back(std::move(n));
  const auto nid = static_cast<NetId>(netlist_.nets_.size() - 1);
  d.out_net = nid;
  return nid;
}

void NetlistBuilder::connect_input(NetId net, CellId sink) {
  PTS_CHECK(net < netlist_.nets_.size());
  PTS_CHECK(sink < netlist_.cells_.size());
  Cell& s = netlist_.cells_[sink];
  PTS_CHECK_MSG(s.kind != CellKind::PrimaryInput, "PI cannot have inputs");
  PTS_CHECK_MSG(netlist_.nets_[net].driver != sink, "self-loop net");
  netlist_.nets_[net].sinks.push_back(sink);
  s.in_nets.push_back(net);
}

Netlist NetlistBuilder::build() && {
  netlist_.finalize();
  return std::move(netlist_);
}

}  // namespace pts::netlist
