#include "placement/hpwl.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace pts::placement {

using netlist::CellId;
using netlist::kNoCell;
using netlist::NetId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Nets ahead whose state line the probe loop prefetches.
constexpr std::size_t kPrefetchAhead = 8;

template <bool kMin>
bool beyond(double u, double v) {
  return kMin ? u < v : u > v;
}

// `c ? a : b` without a branch. GCC lowers a select between doubles to a
// compare-and-jump, which mispredicts on data such as "the moved cell sat
// on the edge" (a coin flip on two-cell nets); masks do not.
double pick(bool c, double a, double b) {
  const std::uint64_t mask = std::uint64_t{0} - static_cast<std::uint64_t>(c);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

// Pin positions of the committed placement.
struct Committed {
  const double* X;
  const double* Y;
  Point operator()(CellId c) const { return {X[c], Y[c]}; }
};

// Pin positions under a probed candidate: a moved cell's would-be position,
// found by its mark, any other cell's committed one. The lookup branches
// on the mark: at scale an unmoved pin's mark is often a cache miss, and a
// predicted branch reads the committed position without waiting for it
// (a masked select measured slower there, DESIGN.md §9).
struct Probed {
  const EpochMarks::Mark* marks;
  std::uint32_t epoch;
  const MovedPositions::Entry* entries;
  const double* X;
  const double* Y;
  Point operator()(CellId c) const {
    const EpochMarks::Mark m = marks[c];
    if (m.epoch != epoch) return {X[c], Y[c]};
    const MovedPositions::Entry& e = entries[m.index];
    return {e.new_x, e.new_y};
  }
};

// Plain min/max fold of a net's pins: driver-first init, then the sinks in
// net order.
template <class Pos>
NetBox fold_box(std::span<const CellId> pins, Pos pos) {
  const Point d = pos(pins.front());
  NetBox box{d.x, d.x, d.y, d.y};
  for (const CellId c : pins.subspan(1)) {
    const Point p = pos(c);
    box.min_x = std::min(box.min_x, p.x);
    box.max_x = std::max(box.max_x, p.x);
    box.min_y = std::min(box.min_y, p.y);
    box.max_y = std::max(box.max_y, p.y);
  }
  return box;
}

// The three most extreme x values of one edge over distinct cells, with
// the cells holding the first two: a repeat of either is skipped, and a
// repeat of the third cannot be strictly beyond it. Only nets that list a
// cell twice take this path.
template <bool kMin>
struct Extremes {
  double v[3] = {kMin ? kInf : -kInf, kMin ? kInf : -kInf,
                 kMin ? kInf : -kInf};
  CellId id[2] = {kNoCell, kNoCell};

  void add(CellId c, double x) {
    if (!beyond<kMin>(x, v[2]) || c == id[0] || c == id[1]) return;
    if (beyond<kMin>(x, v[0])) {
      v[2] = v[1];
      v[1] = v[0];
      id[1] = id[0];
      v[0] = x;
      id[0] = c;
    } else if (beyond<kMin>(x, v[1])) {
      v[2] = v[1];
      v[1] = x;
      id[1] = c;
    } else {
      v[2] = x;
    }
  }
};

// Moves x toward the edge (`in`) or away from it (`out`).
template <bool kMin>
double in(double a, double b) {
  return kMin ? std::min(a, b) : std::max(a, b);
}
template <bool kMin>
double out(double a, double b) {
  return kMin ? std::max(a, b) : std::min(a, b);
}

// Inserts x into the three most extreme values of one edge, kept sorted
// (v0 the edge): a min/max network, no branches and no selects.
template <bool kMin>
void insert3(double x, double& v0, double& v1, double& v2) {
  const double t = out<kMin>(v0, x);
  v0 = in<kMin>(v0, x);
  const double u = out<kMin>(v1, t);
  v1 = in<kMin>(v1, t);
  v2 = in<kMin>(v2, u);
}

// Box and runner-ups of a net from its pins. `repeats` says some cell is
// listed twice (Topology::net_repeats_cell); the network would count it
// twice, so those nets fold with cell ids.
template <class Pos>
NetState fold_state(std::span<const CellId> pins, bool repeats, Pos pos) {
  // Scalars, not arrays, so the network stays in registers.
  double lo0 = kInf, lo1 = kInf, lo2 = kInf;
  double hi0 = -kInf, hi1 = -kInf, hi2 = -kInf;
  double min_y = kInf;
  double max_y = -kInf;
  if (!repeats) [[likely]] {
    for (const CellId c : pins) {
      const Point p = pos(c);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
      insert3<true>(p.x, lo0, lo1, lo2);
      insert3<false>(p.x, hi0, hi1, hi2);
    }
  } else {
    Extremes<true> l;
    Extremes<false> h;
    for (const CellId c : pins) {
      const Point p = pos(c);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
      l.add(c, p.x);
      h.add(c, p.x);
    }
    lo0 = l.v[0], lo1 = l.v[1], lo2 = l.v[2];
    hi0 = h.v[0], hi1 = h.v[1], hi2 = h.v[2];
  }
  return NetState{NetBox{lo0, hi0, min_y, max_y},
                  XRunnerUps{lo1, hi1, lo2, hi2}};
}

// True for a net the probe folds from its pins: several moved cells touch
// it, or its one moved cell changes rows (the runner-ups track x only).
bool folds_pins(std::uint32_t count, CellId first, RowMovers movers) {
  return (count != 1) | (first == movers.a) | (first == movers.b);
}

// One x edge of a record: the edge, the runner-up, the third-extreme bound.
struct Edge {
  double edge;
  double next;
  double bound;
};

// The extreme over every cell but the moved one, which sat at `xc`: the
// runner-up when the cell sat on the edge (ties make the two equal).
double first_other(const Edge& e, double xc) {
  return pick(xc == e.edge, e.next, e.edge);
}

// Advances one x edge past its net's single moved cell, from `xc` to `xn`
// (every other cell kept its position), with `first` = first_other(e, xc):
// takes the moved value out of the edge's order statistics and inserts the
// new one with the fold's network. The third slot is the bound, raised to
// the runner-up (the third extreme is never short of it). If the moved
// value held the edge or the runner-up, the second place falls to the
// unknown third extreme; the new value still lands there exactly when it
// is no further in than that slot, or takes the edge. Otherwise the
// function returns false and the caller folds the pins.
template <bool kMin>
bool advance_edge(const Edge& e, double first, double xc, double xn,
                  Edge* next) {
  constexpr double kNone = kMin ? kInf : -kInf;
  const bool known = (xc != e.edge) & (xc != e.next);
  const double third = out<kMin>(e.bound, e.next);
  double v0 = first;
  double v1 = pick(known, e.next, kNone);
  double v2 = third;
  insert3<kMin>(xn, v0, v1, v2);
  *next = Edge{v0, v1, v2};
  const bool within = !beyond<kMin>(third, xn);
  const bool takes = beyond<kMin>(xn, first);
  return known | within | takes;
}

}  // namespace

NetBox compute_net_box(const Placement& placement, NetId net) {
  // CSR pins are driver-first, sinks in net order, so this visits cells in
  // the exact order the Net-struct walk always did (min/max order pinned).
  return fold_box(placement.netlist().topology().pins(net),
                  Committed{placement.positions_x().data(),
                            placement.positions_y().data()});
}

double total_hpwl(const Placement& placement) {
  const netlist::Topology& topology = placement.netlist().topology();
  double total = 0.0;
  for (NetId net = 0; net < topology.num_nets(); ++net) {
    total += topology.net_weight(net) *
             compute_net_box(placement, net).half_perimeter();
  }
  return total;
}

HpwlState::HpwlState(const Placement& placement)
    : placement_(&placement),
      topology_(&placement.netlist().topology()),
      states_(placement.netlist().num_nets()) {
  rebuild();
}

template <class Pos>
NetState HpwlState::fold_net(NetId net, Pos pos) const {
  return fold_state(topology_->pins(net), topology_->net_repeats_cell(net),
                    pos);
}

NetState HpwlState::compute_state(NetId net) const {
  return fold_net(net, Committed{placement_->positions_x().data(),
                                 placement_->positions_y().data()});
}

double HpwlState::update_nets(std::span<const NetId> nets,
                              std::vector<NetChange>* changes) {
  double delta = 0.0;
  for (NetId net : nets) {
    const double before = states_[net].box.half_perimeter();
    states_[net] = compute_state(net);
    const double after = states_[net].box.half_perimeter();
    if (before == after) continue;
    delta += topology_->net_weight(net) * (after - before);
    if (changes != nullptr) changes->push_back({net, before, after});
  }
  total_ += delta;
  return delta;
}

double HpwlState::probe_nets_batch(const MovedPositions& moved,
                                   const NetMarker& marked, RowMovers movers,
                                   std::vector<NetChange>* changes,
                                   ProbedNets* keep) const {
  PTS_DCHECK(changes != nullptr);
  return keep != nullptr
             ? probe_nets<true>(moved, marked, movers, changes, keep)
             : probe_nets<false>(moved, marked, movers, changes, nullptr);
}

template <bool kKeep>
double HpwlState::probe_nets(const MovedPositions& moved,
                             const NetMarker& marked, RowMovers movers,
                             std::vector<NetChange>* changes,
                             ProbedNets* keep) const {
  const std::span<const NetId> nets = marked.nets();
  const CellId* first = marked.first_cells().data();
  const std::uint32_t* count = marked.cell_counts().data();
  const NetState* states = states_.data();
  // Locals, not loads through `moved`: the change stores below could
  // otherwise alias its members and force a reload per net.
  const EpochMarks::Mark* marks = moved.marks().data();
  const MovedPositions::Entry* entries = moved.entries();
  const Probed pos{marks, moved.marks().epoch(), entries,
                   placement_->positions_x().data(),
                   placement_->positions_y().data()};
  const std::size_t n = nets.size();

  // Cursor-style change emission: write unconditionally, advance only when
  // the half-perimeter moved. Same entries, same order as update_nets().
  std::size_t nc = changes->size();
  changes->resize(nc + n);
  NetChange* out = changes->data();
  NetState* kept = nullptr;
  std::uint64_t rescanned = 0;
  if constexpr (kKeep) {
    // Grow only: resizing down and up again would re-initialize entries.
    if (keep->states.size() < n) keep->states.resize(n);
    kept = keep->states.data();
  }

  double delta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(&states[nets[i + kPrefetchAhead]]);
    }
    const NetId net = nets[i];
    const NetState& s = states[net];
    const CellId c = first[i];
    const double before = s.box.half_perimeter();
    NetBox box;
    if (folds_pins(count[i], c, movers)) [[unlikely]] {
      // Several moved cells, or a cell changing rows: fold the pins.
      if constexpr (kKeep) {
        kept[i] = fold_net(net, pos);
        box = kept[i].box;
        ++rescanned;
      } else {
        box = fold_box(topology_->pins(net), pos);
      }
    } else {
      // One moved cell, same row: y is the committed box's, and each x
      // edge is the moved cell's new x against the extreme over every
      // other cell — the runner-up if the cell sat on the edge (a tie on
      // the edge makes the two equal), else the edge.
      PTS_DCHECK(marks[c].epoch == pos.epoch);
      const MovedPositions::Entry& e = entries[marks[c].index];
      const double xc = e.x;
      const double xn = e.new_x;
      const Edge lo{s.box.min_x, s.x.min_next, s.x.min_bound};
      const Edge hi{s.box.max_x, s.x.max_next, s.x.max_bound};
      const double lo_first = first_other(lo, xc);
      const double hi_first = first_other(hi, xc);
      box = NetBox{std::min(lo_first, xn), std::max(hi_first, xn),
                   s.box.min_y, s.box.max_y};
      if constexpr (kKeep) {
        Edge new_lo, new_hi;
        const bool lo_known = advance_edge<true>(lo, lo_first, xc, xn, &new_lo);
        const bool hi_known =
            advance_edge<false>(hi, hi_first, xc, xn, &new_hi);
        kept[i].box = box;
        kept[i].x = XRunnerUps{new_lo.next, new_hi.next, new_lo.bound,
                               new_hi.bound};
        if (!(lo_known && hi_known)) [[unlikely]] {
          kept[i] = fold_net(net, pos);
          ++rescanned;
        }
      }
    }
    const double after = box.half_perimeter();
    // before == after contributes w * (+0.0) = +0.0, which never changes
    // the accumulator (no term is -0.0), so the unconditional add matches
    // update_nets()'s skip bit for bit.
    delta += topology_->net_weight(net) * (after - before);
    out[nc] = NetChange{net, before, after};
    nc += static_cast<std::size_t>(before != after);
  }
  changes->resize(nc);
  if constexpr (kKeep) keep->rescanned = rescanned;
  return delta;
}

void HpwlState::commit_probe(std::span<const NetId> nets,
                             const ProbedNets& probed, double delta) {
  PTS_DCHECK(probed.states.size() >= nets.size());
  const NetState* kept = probed.states.data();
  for (std::size_t i = 0; i < nets.size(); ++i) states_[nets[i]] = kept[i];
  committed_nets_ += nets.size();
  rescanned_nets_ += probed.rescanned;
  total_ += delta;
}

void HpwlState::rebuild() {
  const std::size_t num_nets = topology_->num_nets();
  total_ = 0.0;
  for (NetId net = 0; net < num_nets; ++net) {
    states_[net] = compute_state(net);
    total_ += topology_->net_weight(net) * states_[net].box.half_perimeter();
  }
}

double HpwlState::compute_fresh_total() const {
  return total_hpwl(*placement_);
}

void HpwlState::check_consistent() const {
  const auto X = placement_->positions_x();
  std::vector<double> xs;
  for (NetId net = 0; net < topology_->num_nets(); ++net) {
    const std::span<const CellId> pins = topology_->pins(net);
    const NetState& s = states_[net];
    const NetBox fresh = compute_net_box(*placement_, net);
    PTS_CHECK(s.box.min_x == fresh.min_x && s.box.max_x == fresh.max_x &&
              s.box.min_y == fresh.min_y && s.box.max_y == fresh.max_y);
    // x of each distinct cell, ascending, padded with +inf / -inf.
    xs.clear();
    for (std::size_t k = 0; k < pins.size(); ++k) {
      const bool repeat =
          std::find(pins.begin(), pins.begin() + static_cast<std::ptrdiff_t>(k),
                    pins[k]) != pins.begin() + static_cast<std::ptrdiff_t>(k);
      if (!repeat) xs.push_back(X[pins[k]]);
    }
    std::sort(xs.begin(), xs.end());
    const std::size_t m = xs.size();
    const auto low = [&](std::size_t i) { return i < m ? xs[i] : kInf; };
    const auto high = [&](std::size_t i) {
      return i < m ? xs[m - 1 - i] : -kInf;
    };
    PTS_CHECK(low(0) == s.box.min_x && high(0) == s.box.max_x);
    PTS_CHECK(s.x.min_next == low(1) && s.x.max_next == high(1));
    PTS_CHECK(s.x.min_bound <= low(2) && s.x.max_bound >= high(2));
  }
}

}  // namespace pts::placement
