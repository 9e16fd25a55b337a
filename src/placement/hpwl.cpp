#include "placement/hpwl.hpp"

#include <algorithm>
#include <cstdint>

namespace pts::placement {

using netlist::NetId;

HpwlState::HpwlState(const Placement& placement)
    : placement_(&placement),
      topology_(&placement.netlist().topology()),
      boxes_(placement.netlist().num_nets()) {
  rebuild();
}

NetBox HpwlState::compute_box(NetId net) const {
  // CSR pins are driver-first, sinks in net order, so this visits cells in
  // the exact order the Net-struct walk always did (min/max order pinned).
  const std::span<const netlist::CellId> pins = topology_->pins(net);
  const Point d = placement_->position(pins.front());
  NetBox box{d.x, d.x, d.y, d.y};
  for (netlist::CellId sink : pins.subspan(1)) {
    const Point p = placement_->position(sink);
    box.min_x = std::min(box.min_x, p.x);
    box.max_x = std::max(box.max_x, p.x);
    box.min_y = std::min(box.min_y, p.y);
    box.max_y = std::max(box.max_y, p.y);
  }
  return box;
}

double HpwlState::update_nets(std::span<const NetId> nets,
                              std::vector<NetChange>* changes) {
  double delta = 0.0;
  for (NetId net : nets) {
    const double before = boxes_[net].half_perimeter();
    boxes_[net] = compute_box(net);
    const double after = boxes_[net].half_perimeter();
    if (before == after) continue;
    delta += topology_->net_weight(net) * (after - before);
    if (changes != nullptr) changes->push_back({net, before, after});
  }
  total_ += delta;
  return delta;
}

double HpwlState::probe_nets_batch(std::span<const double> xs,
                                   std::span<const double> ys,
                                   std::span<const NetId> nets,
                                   std::vector<NetChange>* changes,
                                   std::vector<NetBox>* boxes) const {
  PTS_DCHECK(changes != nullptr);
  PTS_DCHECK(xs.size() == ys.size());
  const double* X = xs.data();
  const double* Y = ys.data();

  // Cursor-style change emission: write unconditionally, advance only when
  // the half-perimeter moved. Same entries, same order as update_nets().
  std::size_t nc = changes->size();
  changes->resize(nc + nets.size());
  NetChange* out = changes->data();
  NetBox* box_out = nullptr;
  if (boxes != nullptr) {
    boxes->resize(nets.size());
    box_out = boxes->data();
  }

  double delta = 0.0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const NetId net = nets[i];
    const double before = boxes_[net].half_perimeter();
    const std::span<const netlist::CellId> pins = topology_->pins(net);

    // Driver-first init then min/max fold — compute_box()'s exact order,
    // but against the caller's shadow arrays instead of the placement.
    const netlist::CellId driver = pins.front();
    double min_x = X[driver], max_x = X[driver];
    double min_y = Y[driver], max_y = Y[driver];
    for (const netlist::CellId c : pins.subspan(1)) {
      min_x = std::min(min_x, X[c]);
      max_x = std::max(max_x, X[c]);
      min_y = std::min(min_y, Y[c]);
      max_y = std::max(max_y, Y[c]);
    }

    const double after = (max_x - min_x) + (max_y - min_y);
    if (box_out != nullptr) box_out[i] = NetBox{min_x, max_x, min_y, max_y};
    // before == after contributes w * (+0.0) = +0.0, which never changes
    // the accumulator (no term is -0.0), so the unconditional add matches
    // update_nets()'s skip bit for bit.
    delta += topology_->net_weight(net) * (after - before);
    out[nc] = NetChange{net, before, after};
    nc += static_cast<std::size_t>(before != after);
  }
  changes->resize(nc);
  return delta;
}

void HpwlState::commit_probe(std::span<const NetId> nets,
                             const std::vector<NetBox>& boxes, double delta) {
  PTS_DCHECK(boxes.size() == nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) boxes_[nets[i]] = boxes[i];
  total_ += delta;
}

void HpwlState::rebuild() {
  const std::size_t num_nets = topology_->num_nets();
  total_ = 0.0;
  for (NetId net = 0; net < num_nets; ++net) {
    boxes_[net] = compute_box(net);
    total_ += topology_->net_weight(net) * boxes_[net].half_perimeter();
  }
}

double HpwlState::compute_fresh_total() const {
  const std::size_t num_nets = topology_->num_nets();
  double total = 0.0;
  for (NetId net = 0; net < num_nets; ++net) {
    total += topology_->net_weight(net) * compute_box(net).half_perimeter();
  }
  return total;
}

}  // namespace pts::placement
