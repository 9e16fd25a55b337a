#include "cost/evaluator.hpp"

#include "placement/overlay.hpp"

namespace pts::cost {

using netlist::CellId;

ProbeScratch::ProbeScratch(const Evaluator& eval)
    : staged_(eval.placement_.netlist().num_cells()),
      marker_(eval.placement_.netlist().num_nets()) {
  // Every buffer at its worst case up front, so that probing never
  // allocates in steady state (asserted by stress_test's allocation guard).
  const netlist::Netlist& nl = eval.placement_.netlist();
  moved_.reserve(nl.num_cells());
  changes_.reserve(nl.num_nets());
  objs_.reserve(kProbeBatchWidth);
  peek_sums_.reserve(eval.paths_->size());
  probed_.states.reserve(nl.num_nets());
}

Evaluator::Evaluator(placement::Placement placement,
                     std::shared_ptr<const timing::PathSet> paths,
                     const CostParams& params, const FuzzyGoals& goals)
    : placement_(std::move(placement)),
      paths_(std::move(paths)),
      params_(params),
      goals_(goals),
      hpwl_(placement_),
      timer_(paths_, hpwl_, params.delay_model),
      topology_(&placement_.netlist().topology()),
      scratch_(*this) {
  PTS_CHECK(params_.rebuild_interval >= 1);
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
                            std::span<double> costs, ProbeScratch& s) const {
  PTS_DCHECK(costs.size() == moves.size());
  s.probe_valid_ = false;
  if (moves.empty()) return;

  const auto py = placement_.positions_y();
  s.objs_.resize(moves.size());
  const double area_scale = placement_.layout().core_height();
  const std::size_t last = moves.size() - 1;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    // Swap-free scoring: describe the would-be geometry as an overlay,
    // stage the would-be positions of the moved cells by stamp, mark the
    // touched nets in the exact order a real swap would report moved cells,
    // and score those nets. The last candidate also keeps its net states,
    // delta and peeked sums (marker_ keeps its nets), so commit_probe() can
    // promote it.
    const CellId a = moves[i].a;
    const CellId b = moves[i].b;
    s.moved_.clear();
    const placement::SwapOverlay ov =
        placement::build_swap_overlay(placement_, a, b, &s.moved_);
    placement::stage_moved(placement_, ov, s.moved_, &s.staged_);
    s.marker_.begin();
    for (CellId cell : s.moved_) s.marker_.add_nets_of(*topology_, cell);
    // a and b change rows exactly when they sit on different rows.
    const placement::RowMovers movers =
        py[a] != py[b] ? placement::RowMovers{a, b} : placement::RowMovers{};

    s.changes_.clear();
    const double delta =
        hpwl_.probe_nets_batch(s.staged_, s.marker_, movers, &s.changes_,
                               i == last ? &s.probed_ : nullptr);
    // `total_ + delta` is the exact expression update_nets() folds into the
    // running total; peek_delta replays apply_net_change/max_delay on the
    // scratch sums, which are left holding the last candidate's.
    s.objs_[i].wirelength = hpwl_.total() + delta;
    s.objs_[i].delay = timer_.peek_delta(s.changes_, s.peek_sums_);
    s.objs_[i].area = ov.max_extent * area_scale;
    s.probe_delta_ = delta;
  }
  goals_.cost_batch(s.objs_, costs);
  s.probe_a_ = moves[last].a;
  s.probe_b_ = moves[last].b;
  s.probe_valid_ = true;
}

double Evaluator::commit_probe() {
  ProbeScratch& s = scratch_;
  PTS_CHECK_MSG(s.probe_valid_,
                "commit_probe() without an immediately preceding probe");
  s.probe_valid_ = false;
  placement_.swap_cells(s.probe_a_, s.probe_b_);
  hpwl_.commit_probe(s.marker_.nets(), s.probed_, s.probe_delta_);
  timer_.commit_peek(s.peek_sums_);

  ++swaps_applied_;
  if (++swaps_since_rebuild_ >= params_.rebuild_interval) rebuild_all();
  return cost();
}

double Evaluator::commit_swap(CellId a, CellId b) {
  const ProbeScratch& s = scratch_;
  const bool pending = s.probe_valid_ && s.probe_a_ == a && s.probe_b_ == b;
  return pending ? commit_probe() : apply_swap(a, b);
}

void Evaluator::reset_placement(const std::vector<CellId>& cell_at_slot) {
  scratch_.probe_valid_ = false;
  placement_.assign_slots(cell_at_slot);
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
  // reset_placement rebuilds boxes and positions exactly (stateless
  // recomputes), then the drift-carrying accumulators are overwritten with
  // the captured values and the rebuild cadence counter is reinstated.
  reset_placement(st.slots);
  hpwl_.restore_total(st.hpwl_total);
  timer_.restore_wire_sums(st.wire_sums);
  swaps_applied_ = static_cast<std::size_t>(st.swaps_applied);
  swaps_since_rebuild_ = static_cast<std::size_t>(st.swaps_since_rebuild);
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
