#include "timing/paths.hpp"

#include <algorithm>

#include "timing/sta.hpp"

namespace pts::timing {

using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

namespace {

// Per-path sum of net half-perimeters, in path-net order.
template <class NetHpwl>
void sum_path_wires(const PathSet& paths, NetHpwl net_hpwl,
                    std::vector<double>* sums) {
  sums->assign(paths.size(), 0.0);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    for (NetId net : paths.path(p).nets) (*sums)[p] += net_hpwl(net);
  }
}

double max_path_delay(std::span<const double> const_delay,
                      std::span<const double> wire_sums,
                      const DelayModel& model) {
  double best = 0.0;
  for (std::size_t p = 0; p < wire_sums.size(); ++p) {
    best = std::max(best, const_delay[p] + model.wire_delay(wire_sums[p]));
  }
  return best;
}

}  // namespace

double fresh_max_delay(const PathSet& paths,
                       const placement::Placement& placement,
                       const DelayModel& model) {
  std::vector<double> sums;
  sum_path_wires(
      paths,
      [&](NetId net) {
        return placement::compute_net_box(placement, net).half_perimeter();
      },
      &sums);
  return max_path_delay(paths.const_delays(), sums, model);
}

PathSet::PathSet(const netlist::Netlist& netlist, std::vector<TimingPath> paths)
    : paths_(std::move(paths)) {
  const std::size_t num_nets = netlist.num_nets();
  // Two-pass CSR build: count paths per net, prefix-sum, then fill in
  // ascending path order (matching the old per-net push_back order).
  net_path_offsets_.assign(num_nets + 1, 0);
  const_delay_.resize(paths_.size());
  for (std::uint32_t p = 0; p < paths_.size(); ++p) {
    PTS_CHECK(paths_[p].cells.size() == paths_[p].nets.size() + 1);
    const_delay_[p] = paths_[p].const_delay;
    for (NetId net : paths_[p].nets) {
      PTS_CHECK(net < num_nets);
      ++net_path_offsets_[net + 1];
    }
  }
  for (std::size_t n = 0; n < num_nets; ++n) {
    if (net_path_offsets_[n + 1] > 0) ++num_path_nets_;
    net_path_offsets_[n + 1] += net_path_offsets_[n];
  }
  net_paths_.resize(net_path_offsets_.back());
  std::vector<std::uint32_t> cursor(net_path_offsets_.begin(),
                                    net_path_offsets_.end() - 1);
  for (std::uint32_t p = 0; p < paths_.size(); ++p) {
    for (NetId net : paths_[p].nets) {
      // A path may not traverse the same net twice (paths are simple).
      PTS_DCHECK(cursor[net] == net_path_offsets_[net] ||
                 net_paths_[cursor[net] - 1] != p);
      net_paths_[cursor[net]++] = p;
    }
  }
}

std::shared_ptr<const PathSet> extract_critical_paths(
    const netlist::Netlist& netlist, std::size_t k, const DelayModel& model) {
  PTS_CHECK(k >= 1);
  // Uniform-delay STA gives arrival times and per-cell max-predecessors;
  // we re-derive the critical path *per primary output* by walking back
  // along max-arrival predecessors.
  const StaResult sta = run_sta_uniform(netlist, /*uniform_net_delay=*/1.0, model);

  struct Candidate {
    CellId po;
    double arrival;
  };
  std::vector<Candidate> pos;
  for (CellId cell : netlist.pad_cells()) {
    if (netlist.cell(cell).kind == CellKind::PrimaryOutput) {
      pos.push_back({cell, sta.arrival[cell]});
    }
  }
  PTS_CHECK_MSG(!pos.empty(), "netlist has no primary outputs");
  std::sort(pos.begin(), pos.end(), [](const Candidate& a, const Candidate& b) {
    return a.arrival > b.arrival;
  });
  pos.resize(critical_path_count(netlist, k));

  const netlist::Topology& topo = netlist.topology();
  std::vector<TimingPath> paths;
  paths.reserve(pos.size());
  for (const Candidate& candidate : pos) {
    TimingPath path;
    // Walk back from the PO choosing, at each cell, the input whose driver
    // has the maximal (arrival + wire) — i.e. the binding input under the
    // uniform model used for extraction. The first maximum wins, so the
    // deduplicated in-nets pick the same input a walk over every pin would.
    CellId walk = candidate.po;
    path.cells.push_back(walk);
    while (!topo.in_nets(walk).empty()) {
      NetId best_net = netlist::kNoNet;
      CellId best_driver = netlist::kNoCell;
      double best_arrival = -1.0;
      for (NetId net : topo.in_nets(walk)) {
        const CellId driver = topo.driver(net);
        if (sta.arrival[driver] > best_arrival) {
          best_arrival = sta.arrival[driver];
          best_net = net;
          best_driver = driver;
        }
      }
      path.nets.push_back(best_net);
      path.cells.push_back(best_driver);
      walk = best_driver;
    }
    std::reverse(path.cells.begin(), path.cells.end());
    std::reverse(path.nets.begin(), path.nets.end());
    path.const_delay = 0.0;
    for (CellId cell : path.cells) {
      path.const_delay += model.cell_delay(netlist, cell);
    }
    paths.push_back(std::move(path));
  }
  return std::make_shared<PathSet>(netlist, std::move(paths));
}

std::size_t critical_path_count(const netlist::Netlist& netlist,
                                std::size_t k) {
  const auto outputs = static_cast<std::size_t>(std::count_if(
      netlist.pad_cells().begin(), netlist.pad_cells().end(),
      [&netlist](CellId pad) {
        return netlist.cell(pad).kind == CellKind::PrimaryOutput;
      }));
  return std::min(k, outputs);
}

PathTimer::PathTimer(std::shared_ptr<const PathSet> paths,
                     const placement::HpwlState& hpwl, DelayModel model)
    : paths_(std::move(paths)), model_(model) {
  PTS_CHECK(paths_ != nullptr);
  const_delay_ = paths_->const_delays();
  rebuild(hpwl);
}

void PathTimer::apply_net_change(NetId net, double old_hpwl, double new_hpwl) {
  for (std::uint32_t p : paths_->paths_of_net(net)) {
    wire_sum_[p] += new_hpwl - old_hpwl;
  }
}

double PathTimer::peek_delta(std::span<const placement::NetChange> changes,
                             std::vector<double>& sums) const {
  sums.assign(wire_sum_.begin(), wire_sum_.end());
  for (const auto& change : changes) {
    for (std::uint32_t p : paths_->paths_of_net(change.net)) {
      sums[p] += change.new_hpwl - change.old_hpwl;
    }
  }
  // Same reduction as max_delay(), against the scratch sums.
  return max_path_delay(const_delay_, sums, model_);
}

void PathTimer::rebuild(const placement::HpwlState& hpwl) {
  sum_path_wires(
      *paths_, [&](NetId net) { return hpwl.net_hpwl(net); }, &wire_sum_);
}

double PathTimer::max_delay() const {
  return max_path_delay(const_delay_, wire_sum_, model_);
}

}  // namespace pts::timing
