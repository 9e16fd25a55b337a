#include "tabu/search.hpp"

#include "support/stopwatch.hpp"

namespace pts::tabu {

bool compound_is_tabu(const TabuList& list, const CompoundMove& move) {
  for (const Move& swap : move.swaps) {
    if (list.is_tabu(swap)) return true;
  }
  return false;
}

void record_compound(TabuList& list, const CompoundMove& move) {
  for (const Move& swap : move.swaps) list.record(swap);
}

TabuSearch::TabuSearch(cost::Evaluator& eval, const TabuParams& params, Rng rng,
                       TrialPool* pool)
    : eval_(&eval),
      params_(params),
      rng_(rng),
      list_(params.tenure, params.attribute),
      frequency_(eval.placement().netlist().num_cells(), params.frequency),
      best_cost_(eval.cost()),
      best_quality_(eval.quality()),
      best_objectives_(eval.objectives()),
      best_slots_(eval.placement().slots()),
      pool_(pool) {}

void TabuSearch::update_best() {
  const double cost = eval_->cost();
  if (cost < best_cost_) {
    best_cost_ = cost;
    best_quality_ = eval_->quality();
    best_objectives_ = eval_->objectives();
    best_slots_ = eval_->placement().slots();
  }
}

TabuSearch::State TabuSearch::state() const {
  State st;
  st.rng = rng_.state();
  st.tabu_entries = list_.entries();
  st.frequency = frequency_.state();
  st.best_cost = best_cost_;
  st.best_quality = best_quality_;
  st.best_objectives = best_objectives_;
  st.best_slots = best_slots_;
  st.stats = stats_;
  return st;
}

void TabuSearch::restore(const State& st) {
  rng_.set_state(st.rng);
  list_.assign(st.tabu_entries);
  frequency_.restore(st.frequency);
  best_cost_ = st.best_cost;
  best_quality_ = st.best_quality;
  best_objectives_ = st.best_objectives;
  best_slots_ = st.best_slots;
  stats_ = st.stats;
}

bool TabuSearch::iterate(const CellRange& range) {
  ++stats_.iterations;
  const double cost_before = eval_->cost();
  // `move_scratch_` is reused across iterations so the steady-state loop
  // does not allocate (stress_test pins this at 50k gates).
  build_compound_move(*eval_, range, params_.compound, rng_, &frequency_,
                      &move_scratch_, pool_);
  const CompoundMove& move = move_scratch_;
  // Each built level probed `width` trials (early accept skips the rest).
  stats_.trials += params_.compound.width * move.swaps.size();
  if (move.improved_early) ++stats_.early_accepts;

  if (compound_is_tabu(list_, move)) {
    const bool aspirated = params_.aspiration && move.cost < best_cost_;
    if (!aspirated) {
      undo_compound(*eval_, move);
      ++stats_.rejected_tabu;
      return false;
    }
    ++stats_.aspirated;
  }
  record_compound(list_, move);
  const bool improved = move.cost < cost_before;
  for (const Move& swap : move.swaps) frequency_.record(swap, improved);
  ++stats_.accepted;
  update_best();
  return true;
}

SearchResult TabuSearch::run() { return run(RunControl{}); }

SearchResult TabuSearch::run(const RunControl& control) {
  const CellRange range = full_range(eval_->placement().netlist());
  SearchResult result;
  result.cost_trace.name = "cost";
  result.best_trace.name = "best";
  result.best_vs_time.name = "best_vs_time";
  const Stopwatch watch;
  // A fresh search starts its time-to-quality trail at (0, initial best); a
  // restored search already recorded that point before its checkpoint, so
  // re-adding it would fork the trace from the uninterrupted run.
  if (stats_.iterations == 0) result.best_vs_time.add(0.0, best_cost_);
  // Resume support: a restored search has stats_.iterations completed
  // iterations behind it and picks up exactly where the interrupted run
  // stopped (fresh searches start at 0, identical to before).
  for (std::size_t iter = stats_.iterations; iter < params_.iterations; ++iter) {
    if (const auto reason =
            control.should_stop(iter, control.needs_clock() ? watch.seconds() : 0.0,
                                best_cost_, best_quality_)) {
      result.stop_reason = *reason;
      break;
    }
    const double prev_best = best_cost_;
    iterate(range);
    // Time-to-quality trail (tt50 in macro_scale): one point per adopted
    // best. Reading the wall clock here is observation only — it cannot
    // perturb the search (DESIGN.md §5's read-only rule).
    if (best_cost_ < prev_best) {
      result.best_vs_time.add(watch.seconds(), best_cost_);
    }
    if (params_.trace_stride != 0 && iter % params_.trace_stride == 0) {
      result.cost_trace.add(static_cast<double>(iter), eval_->cost());
      result.best_trace.add(static_cast<double>(iter), best_cost_);
    }
    if (control.observer != nullptr) {
      const Progress progress{iter + 1, watch.seconds(), eval_->cost(),
                              best_cost_};
      if (best_cost_ < prev_best) control.notify_improvement(progress);
      control.notify_iteration(progress);
    }
  }
  result.best_cost = best_cost_;
  result.best_quality = best_quality_;
  result.best_objectives = best_objectives_;
  result.best_slots = best_slots_;
  result.stats = stats_;
  return result;
}

}  // namespace pts::tabu
