#include "cost/evaluator.hpp"

#include "placement/overlay.hpp"

namespace pts::cost {

using netlist::CellId;

Evaluator::Evaluator(placement::Placement placement,
                     std::shared_ptr<const timing::PathSet> paths,
                     const CostParams& params, const FuzzyGoals& goals)
    : placement_(std::move(placement)),
      paths_(std::move(paths)),
      params_(params),
      goals_(goals),
      hpwl_(placement_),
      timer_(paths_, hpwl_, params.delay_model),
      marker_(placement_.netlist().num_nets()),
      topology_(&placement_.netlist().topology()) {
  PTS_CHECK(params_.rebuild_interval >= 1);
  // Size every scratch buffer to its worst case up front so that neither
  // probing nor apply_swap/commit_probe allocates in steady state (asserted
  // by topology_test's allocation-counting guard).
  moved_scratch_.reserve(placement_.netlist().num_cells());
  change_scratch_.reserve(placement_.netlist().num_nets());
  probed_.states.reserve(placement_.netlist().num_nets());
  const auto px = placement_.positions_x();
  const auto py = placement_.positions_y();
  shadow_x_.assign(px.begin(), px.end());
  shadow_y_.assign(py.begin(), py.end());
}

Objectives Evaluator::objectives() const {
  Objectives o;
  o.wirelength = hpwl_.total();
  o.delay = timer_.max_delay();
  o.area = placement_.max_row_extent() * placement_.layout().core_height();
  return o;
}

double Evaluator::apply_swap(CellId a, CellId b) {
  // One commit path: score the pair, then promote it. The promoted state is
  // bit-identical to an update of every touched net from its pins.
  probe_swap(a, b);
  return commit_probe();
}

double Evaluator::probe_swap(CellId a, CellId b) {
  const Move move{a, b};
  double probed_cost = 0.0;
  probe_batch({&move, 1}, {&probed_cost, 1});
  return probed_cost;
}

void Evaluator::probe_batch(std::span<const Move> moves,
                            std::span<double> costs) {
  PTS_DCHECK(costs.size() == moves.size());
  probe_valid_ = false;
  if (moves.empty()) return;

  // The timing replay only folds nets that lie on a monitored path; any
  // other net's NetChange is an exact no-op in peek_delta's sum (its
  // paths_of_net slice is empty — no arithmetic, not even a +0.0). Keeping
  // only path-relevant changes therefore leaves every delay bit unchanged
  // while giving the concatenated buffer a true static bound —
  // width × num_path_nets — so steady state never reallocates, matching
  // the ctor's worst-case-up-front sizing contract. (The unfiltered bound
  // would be width × num_nets, content-dependent in practice: one unlucky
  // batch past the high-water mark would allocate mid-search.)
  const timing::PathSet& pset = timer_.paths();
  const std::size_t max_changes = moves.size() * pset.num_path_nets();
  if (batch_changes_.capacity() < max_changes) {
    batch_changes_.reserve(max_changes);
  }
  const auto px = placement_.positions_x();
  const auto py = placement_.positions_y();

  batch_changes_.clear();
  batch_offsets_.clear();
  batch_offsets_.push_back(0);
  batch_objs_.resize(moves.size());
  const double area_scale = placement_.layout().core_height();
  const std::size_t last = moves.size() - 1;

  for (std::size_t i = 0; i < moves.size(); ++i) {
    // Swap-free scoring: describe the would-be geometry as an overlay, mark
    // the touched nets in the exact order a real swap would report moved
    // cells, stage the overlaid coordinates of those cells into the shadow
    // arrays (O(moved) writes), and recompute the touched boxes with the
    // plain-load kernel. The shadow is restored to the committed positions
    // before the next candidate. The last candidate also keeps its boxes
    // and delta (moved_scratch_ and marker_ keep its cells and nets), so
    // commit_probe() can promote it.
    moved_scratch_.clear();
    const placement::SwapOverlay ov = placement::build_swap_overlay(
        placement_, moves[i].a, moves[i].b, &moved_scratch_);
    marker_.begin();
    for (CellId cell : moved_scratch_) marker_.add_nets_of(*topology_, cell);
    for (CellId cell : moved_scratch_) {
      placement::overlaid_position(ov, cell, px[cell], py[cell],
                                   &shadow_x_[cell], &shadow_y_[cell]);
    }
    // a and b change rows exactly when they sit on different rows.
    const CellId a = moves[i].a;
    const CellId b = moves[i].b;
    const placement::RowMovers movers =
        py[a] != py[b] ? placement::RowMovers{a, b} : placement::RowMovers{};

    change_scratch_.clear();
    const double delta = hpwl_.probe_nets_batch(
        shadow_x_, shadow_y_, marker_, movers, &change_scratch_,
        i == last ? &probed_ : nullptr);
    for (CellId cell : moved_scratch_) {
      shadow_x_[cell] = px[cell];
      shadow_y_[cell] = py[cell];
    }
    for (const auto& change : change_scratch_) {
      if (pset.net_on_path(change.net)) batch_changes_.push_back(change);
    }
    batch_offsets_.push_back(static_cast<std::uint32_t>(batch_changes_.size()));
    // `total_ + delta` is the exact expression update_nets() folds into the
    // running total.
    batch_objs_[i].wirelength = hpwl_.total() + delta;
    batch_objs_[i].area = ov.max_extent * area_scale;
    probe_delta_ = delta;
  }

  // peek_delta_batch replays the apply_net_change/max_delay sequence per
  // candidate on scratch sums, which are left holding the last candidate's.
  batch_delays_.resize(moves.size());
  timer_.peek_delta_batch(batch_changes_, batch_offsets_, batch_delays_);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    batch_objs_[i].delay = batch_delays_[i];
  }
  goals_.cost_batch(batch_objs_, costs);
  probe_a_ = moves[last].a;
  probe_b_ = moves[last].b;
  probe_valid_ = true;
}

double Evaluator::commit_probe() {
  PTS_CHECK_MSG(probe_valid_,
                "commit_probe() without an immediately preceding probe");
  probe_valid_ = false;
  placement_.swap_cells(probe_a_, probe_b_);
  // moved_scratch_ still holds the pending candidate's moved set
  // (build_swap_overlay reports the cells swap_cells moves, and
  // probe_valid_ guarantees no intervening mutation), and marker_ its nets.
  refresh_shadow(moved_scratch_);
  hpwl_.commit_probe(marker_.nets(), probed_, probe_delta_);
  timer_.commit_peek();

  ++swaps_applied_;
  if (++swaps_since_rebuild_ >= params_.rebuild_interval) rebuild_all();
  return cost();
}

double Evaluator::commit_swap(CellId a, CellId b) {
  const bool pending = probe_valid_ && ((probe_a_ == a && probe_b_ == b) ||
                                        (probe_a_ == b && probe_b_ == a));
  return pending ? commit_probe() : apply_swap(a, b);
}

void Evaluator::reset_placement(const std::vector<CellId>& cell_at_slot) {
  probe_valid_ = false;
  placement_.assign_slots(cell_at_slot);
  const auto px = placement_.positions_x();
  const auto py = placement_.positions_y();
  shadow_x_.assign(px.begin(), px.end());
  shadow_y_.assign(py.begin(), py.end());
  rebuild_all();
}

Evaluator::CheckpointState Evaluator::checkpoint() const {
  CheckpointState st;
  st.slots = placement_.slots();
  st.hpwl_total = hpwl_.total();
  const auto sums = timer_.wire_sums();
  st.wire_sums.assign(sums.begin(), sums.end());
  st.swaps_applied = swaps_applied_;
  st.swaps_since_rebuild = swaps_since_rebuild_;
  return st;
}

void Evaluator::restore_checkpoint(const CheckpointState& st) {
  // reset_placement rebuilds boxes/positions/shadow exactly (stateless
  // recomputes), then the drift-carrying accumulators are overwritten with
  // the captured values and the rebuild cadence counter is reinstated.
  reset_placement(st.slots);
  hpwl_.restore_total(st.hpwl_total);
  timer_.restore_wire_sums(st.wire_sums);
  swaps_applied_ = static_cast<std::size_t>(st.swaps_applied);
  swaps_since_rebuild_ = static_cast<std::size_t>(st.swaps_since_rebuild);
}

void Evaluator::refresh_shadow(std::span<const CellId> cells) {
  const auto px = placement_.positions_x();
  const auto py = placement_.positions_y();
  for (CellId c : cells) {
    shadow_x_[c] = px[c];
    shadow_y_[c] = py[c];
  }
}

void Evaluator::rebuild_all() {
  hpwl_.rebuild();
  timer_.rebuild(hpwl_);
  swaps_since_rebuild_ = 0;
}

FuzzyGoals Evaluator::calibrate_goals(const placement::Placement& initial,
                                      const timing::PathSet& paths,
                                      const CostParams& params) {
  // Totals only: the same values a fresh HpwlState and PathTimer would
  // report, without building either.
  Objectives o;
  o.wirelength = placement::total_hpwl(initial);
  o.delay = timing::fresh_max_delay(paths, initial, params.delay_model);
  o.area = initial.max_row_extent() * initial.layout().core_height();
  return FuzzyGoals::calibrate(o, params.target_improvement,
                               params.initial_membership, params.beta);
}

}  // namespace pts::cost
