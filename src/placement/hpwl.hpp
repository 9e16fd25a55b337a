// Incremental half-perimeter wirelength (HPWL).
//
// Maintains one bounding box per net over the pin positions (pads included)
// of the current placement, and the weighted sum of half-perimeters. Next to
// each box it keeps the net's x runner-ups (XRunnerUps): for the min-x and
// max-x edge, the second extreme x and a bound on the third, so a probe
// that moves one cell of a net along its row scores that net in O(1)
// instead of re-reading every pin (DESIGN.md §9).
//
// Trial moves use the probe/commit pair (DESIGN.md §3): probe_nets_batch()
// scores the touched nets of one candidate — its moved cells' would-be
// positions found by stamp in a MovedPositions, every other pin at its
// committed position — and returns the weighted delta without touching the
// committed state, optionally keeping each net's new box and advanced
// runner-ups in caller scratch; commit_probe() installs them. A probe only
// reads the committed state, so probes through distinct scratch may run
// concurrently (never during a commit). The delta is accumulated in the
// exact summation order update_nets() would use, so
// `total() + probe_nets_batch(...)` is bit-identical to the total() after
// update_nets() on the same nets against the same committed state.
//
// update_nets() is the reference committed path: it recomputes boxes and
// runner-ups of the given nets from their pins. Because recomputation is
// stateless, re-applying a swap restores every box exactly; the running
// total drifts only by floating-point summation order, so long update
// sequences (the cost Evaluator) rebuild() periodically to cap it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "placement/placement.hpp"

namespace pts::placement {

struct NetBox {
  double min_x = 0.0, max_x = 0.0, min_y = 0.0, max_y = 0.0;

  double half_perimeter() const { return (max_x - min_x) + (max_y - min_y); }
};

/// The x runner-ups of one net, over its distinct cells (a cell listed
/// twice counts once). Per x edge: the runner-up — the second extreme x,
/// which is the extreme over every cell but one on the edge (equal to the
/// edge when two cells tie on it; +/-inf when the net has one cell) — and a
/// bound at or beyond the third extreme (+/-inf when there is none). The
/// bound is exact when folded from the pins and may only fall behind the
/// true third extreme as moves are committed; it is what lets a runner-up
/// move inward without a rescan.
struct XRunnerUps {
  double min_next = 0.0;
  double max_next = 0.0;
  double min_bound = 0.0;
  double max_bound = 0.0;
};

/// Committed state of one net: its box and x runner-ups, one cache line,
/// so the O(1) probe path loads a single line per touched net.
struct alignas(64) NetState {
  NetBox box;
  XRunnerUps x;
};
static_assert(sizeof(NetState) == 64);

/// Allocator for NetState arrays: 64-byte aligned blocks carved from plain
/// operator new. std::allocator routes an over-aligned type to the aligned
/// operator new, which glibc serves with fresh pages on every call (about
/// 2 ms of page faults per 50k nets, measured); a plain block is reused
/// from the heap, so building an Evaluator stays cheap.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(std::size_t n) {
    void* raw = ::operator new(n * sizeof(T) + 64);
    const auto line = (reinterpret_cast<std::uintptr_t>(raw) + 64) &
                      ~std::uintptr_t{63};
    reinterpret_cast<void**>(line)[-1] = raw;  // at least 16 bytes free
    return reinterpret_cast<T*>(line);
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }
  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) {
    return true;
  }
};

using NetStates = std::vector<NetState, CacheLineAllocator<NetState>>;

/// Per-net HPWL change reported by update_nets, consumed by the incremental
/// path timer.
struct NetChange {
  netlist::NetId net;
  double old_hpwl;
  double new_hpwl;
};

/// The pending half of a probe: the new state of every touched net,
/// index-aligned with the marker's nets (the vector only grows, so entries
/// past the net count are stale), ready for HpwlState::commit_probe, and
/// how many of those states were folded from pins instead of advanced in
/// O(1) from the committed runner-ups.
struct ProbedNets {
  NetStates states;
  std::uint64_t rescanned = 0;
};

/// The cells a candidate swap moves to another row: a and b of a cross-row
/// swap, kNoCell otherwise. Their nets change y, which the runner-ups do
/// not track, so the probe kernel recomputes those nets from their pins.
struct RowMovers {
  netlist::CellId a = netlist::kNoCell;
  netlist::CellId b = netlist::kNoCell;
};

/// Epoch marks over an id space (nets or cells): each id carries the epoch
/// that last marked it and an index, and a mark counts only in its own
/// epoch, so forgetting every mark is one increment instead of an O(ids)
/// clear. NetMarker and MovedPositions share it.
class EpochMarks {
 public:
  struct Mark {
    std::uint32_t epoch = 0;
    std::uint32_t index = 0;  // the owner's list position during that epoch
  };

  explicit EpochMarks(std::size_t size) : marks_(size) {}

  /// Begins a new round; marks of earlier rounds are forgotten.
  void begin() {
    if (++epoch_ == 0) {  // wrapped: no stale mark may match the new epoch
      for (Mark& m : marks_) m.epoch = 0;
      epoch_ = 1;
    }
  }

  std::uint32_t epoch() const { return epoch_; }
  std::size_t size() const { return marks_.size(); }
  Mark* data() { return marks_.data(); }
  const Mark* data() const { return marks_.data(); }

 private:
  std::vector<Mark> marks_;
  std::uint32_t epoch_ = 0;
};

/// Epoch-stamped net deduplicator: collects the union of nets incident to a
/// set of moved cells without clearing an O(nets) array per swap. For each
/// collected net it also records the first added cell incident to it and
/// how many added cells are — the probe kernel's O(1) path applies to nets
/// touched by exactly one moved cell.
class NetMarker {
 public:
  // The union can never exceed the net count; sizing the entries up front
  // (plus one spare: add_nets_of() writes the next entry unconditionally)
  // keeps collection allocation-free from the first swap on.
  explicit NetMarker(std::size_t num_nets)
      : marks_(num_nets),
        nets_(std::make_unique_for_overwrite<netlist::NetId[]>(num_nets + 1)),
        first_(std::make_unique_for_overwrite<netlist::CellId[]>(num_nets + 1)),
        count_(std::make_unique<std::uint32_t[]>(num_nets + 1)) {}

  /// Begins a new collection round; previously collected nets are forgotten.
  void begin() {
    marks_.begin();
    size_ = 0;
  }

  void add_nets_of(const netlist::Topology& topology, netlist::CellId cell) {
    // Locals, not members: a store into the entry arrays could otherwise
    // alias size_ and force a reload per net.
    EpochMarks::Mark* marks = marks_.data();
    netlist::NetId* nets = nets_.get();
    netlist::CellId* first = first_.get();
    std::uint32_t* count = count_.get();
    const std::uint32_t epoch = marks_.epoch();
    std::uint32_t size = size_;
    for (netlist::NetId net : topology.nets_of(cell)) {
      PTS_DCHECK(net < marks_.size());
      // Write the next entry whether or not the net is new, and advance
      // only for a new one: no branch on the loaded mark.
      EpochMarks::Mark& mark = marks[net];
      const bool fresh = mark.epoch != epoch;
      const std::uint32_t index = fresh ? size : mark.index;
      nets[size] = net;
      first[size] = cell;
      count[index] = fresh ? 1u : count[index] + 1u;
      size += fresh ? 1u : 0u;
      mark = {epoch, index};
    }
    size_ = size;
  }
  void add_nets_of(const netlist::Netlist& netlist, netlist::CellId cell) {
    add_nets_of(netlist.topology(), cell);
  }

  /// Collected nets, in first-touch order.
  std::span<const netlist::NetId> nets() const { return {nets_.get(), size_}; }
  /// Index-aligned with nets(): the first added cell incident to each net.
  std::span<const netlist::CellId> first_cells() const {
    return {first_.get(), size_};
  }
  /// Index-aligned with nets(): how many added cells are incident to it.
  std::span<const std::uint32_t> cell_counts() const {
    return {count_.get(), size_};
  }

 private:
  EpochMarks marks_;
  std::uint32_t size_ = 0;
  std::unique_ptr<netlist::NetId[]> nets_;
  std::unique_ptr<netlist::CellId[]> first_;
  std::unique_ptr<std::uint32_t[]> count_;
};

/// Where one candidate swap puts the cells it moves: per moved-list index
/// the cell's committed x and its would-be position, and per cell a mark
/// holding its index, so the probe kernel looks a pin up instead of
/// reading a staged copy of every position. A cell unmarked this round did
/// not move — pads never do — and keeps its committed position. Sized for
/// every cell up front, so staging never allocates.
class MovedPositions {
 public:
  struct Entry {
    double x;      ///< committed x
    double new_x;  ///< would-be x
    double new_y;  ///< would-be y
  };

  explicit MovedPositions(std::size_t num_cells)
      : marks_(num_cells),
        entries_(std::make_unique_for_overwrite<Entry[]>(num_cells)) {}

  /// Begins a new candidate; the last candidate's cells are forgotten.
  void begin() {
    marks_.begin();
    size_ = 0;
  }

  /// Stages a moved cell (each cell at most once per candidate).
  void add(netlist::CellId cell, double x, double new_x, double new_y) {
    PTS_DCHECK(cell < marks_.size() && size_ < marks_.size());
    marks_.data()[cell] = {marks_.epoch(), size_};
    entries_[size_++] = Entry{x, new_x, new_y};
  }

  /// Per-cell marks (a cell is staged iff its mark carries marks().epoch())
  /// and the entries they index.
  const EpochMarks& marks() const { return marks_; }
  const Entry* entries() const { return entries_.get(); }

 private:
  EpochMarks marks_;
  std::uint32_t size_ = 0;
  std::unique_ptr<Entry[]> entries_;
};

/// Bounding box of `net` over the current pin positions of `placement`.
NetBox compute_net_box(const Placement& placement, netlist::NetId net);

/// Weighted total HPWL of `placement`, summed in net order — exactly the
/// value HpwlState::rebuild() arrives at, without building any state.
double total_hpwl(const Placement& placement);

class HpwlState {
 public:
  explicit HpwlState(const Placement& placement);

  /// Weighted total HPWL of the placement this state tracks.
  double total() const { return total_; }

  double net_hpwl(netlist::NetId net) const {
    PTS_DCHECK(net < states_.size());
    return states_[net].box.half_perimeter();
  }
  const NetBox& net_box(netlist::NetId net) const {
    PTS_DCHECK(net < states_.size());
    return states_[net].box;
  }

  /// Recomputes the boxes and runner-ups of `nets` against the current
  /// placement geometry and returns the change in weighted total. `nets`
  /// must be duplicate-free (use NetMarker to deduplicate the union of
  /// incident nets). If `changes` is non-null, appends one NetChange per
  /// net whose half-perimeter moved.
  double update_nets(std::span<const netlist::NetId> nets,
                     std::vector<NetChange>* changes = nullptr);

  /// Probe counterpart of update_nets(): scores the nets `marked` collected
  /// for a candidate's moved cells, with those cells at the would-be
  /// positions `moved` holds and every other pin at its committed position,
  /// and returns the change in weighted total, without touching committed
  /// state. A net touched by one moved cell that stays in its row is scored
  /// in O(1) from its committed box and runner-ups and the cell's entry in
  /// `moved`; nets touched by several moved cells or by a row mover are
  /// recomputed from their pins. Both give the exact min/max the pins
  /// would, so the result does not depend on the path. Appends the same
  /// NetChanges update_nets() would report after a real swap, and visits
  /// nets and sums the delta in update_nets()'s order, which keeps every
  /// returned delta bit-identical to the committed path (pinned by
  /// tests/property_test.cpp). When `keep` is non-null it receives the new
  /// state of every touched net, index-aligned with marked.nets() (no
  /// allocation once capacity is reached): the box, and the runner-ups
  /// advanced past the one moved cell in O(1) — or, for the nets folded
  /// from their pins and the rare net whose new runner-up the record cannot
  /// tell, folded from the pins. commit_probe() installs it.
  double probe_nets_batch(const MovedPositions& moved, const NetMarker& marked,
                          RowMovers movers, std::vector<NetChange>* changes,
                          ProbedNets* keep = nullptr) const;

  /// Promotes a preceding probe_nets_batch() over the same `nets` that kept
  /// `probed`: installs every net's new state and folds `delta` into the
  /// total. The result is the state update_nets() would produce, up to how
  /// far a bound trails the third extreme.
  void commit_probe(std::span<const netlist::NetId> nets,
                    const ProbedNets& probed, double delta);

  /// Full recomputation from the placement.
  void rebuild();

  /// Overwrites the running total after a rebuild(), restoring a
  /// checkpointed value. The incremental total drifts from the from-scratch
  /// sum (summation order differs), so resuming a run bit-identically
  /// requires reinstalling the exact total the interrupted run carried —
  /// the boxes themselves are stateless recomputes and need no restore.
  void restore_total(double total) { total_ = total; }

  /// From-scratch total for verification; does not modify state.
  double compute_fresh_total() const;

  /// Test hook: PTS_CHECKs every net against its pins in the current
  /// placement — the box is exact, each runner-up equals the extreme over
  /// every cell but one on its edge, and each bound is at or beyond the
  /// third extreme. O(pins).
  void check_consistent() const;

  /// Nets commit_probe() has installed, and how many of their states were
  /// recomputed from pins instead of advanced in O(1) (integer counters).
  std::uint64_t committed_nets() const { return committed_nets_; }
  std::uint64_t rescanned_nets() const { return rescanned_nets_; }

 private:
  template <class Pos>
  NetState fold_net(netlist::NetId net, Pos pos) const;
  NetState compute_state(netlist::NetId net) const;
  template <bool kKeep>
  double probe_nets(const MovedPositions& moved, const NetMarker& marked,
                    RowMovers movers, std::vector<NetChange>* changes,
                    ProbedNets* keep) const;

  const Placement* placement_;
  const netlist::Topology* topology_;  // CSR pin lists + SoA net weights
  NetStates states_;
  double total_ = 0.0;
  std::uint64_t committed_nets_ = 0;
  std::uint64_t rescanned_nets_ = 0;
};

}  // namespace pts::placement
