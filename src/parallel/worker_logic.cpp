#include "parallel/worker_logic.hpp"

#include <algorithm>

namespace pts::parallel {

using tabu::CompoundMove;
using tabu::Move;

ClwSearch::ClwSearch(tabu::CellRange range, tabu::CompoundParams params)
    : range_(range), params_(params) {
  PTS_CHECK(params_.width >= 1);
  PTS_CHECK(params_.depth >= 1);
}

void ClwSearch::begin(cost::Evaluator& eval, Rng& rng) {
  eval_ = &eval;
  rng_ = &rng;
  movable_ = eval.placement().netlist().movable_cells();
  start_cost_ = eval.cost();
  current_cost_ = start_cost_;
  steps_ = 0;
  applied_.clear();
  improved_early_ = false;
  done_ = false;
  abandoned_ = false;
  best_prefixes_.clear();
}

void ClwSearch::step() {
  PTS_CHECK(!done_);
  PTS_CHECK(eval_ != nullptr && rng_ != nullptr);

  // One level, as the sequential search builds it; the best swap is kept
  // even when it degrades the cost.
  applied_.push_back(tabu::commit_best_of_trials(
      *eval_, movable_, range_, params_.width, *rng_, /*memory=*/nullptr,
      /*use_memory=*/false, &current_cost_));
  steps_ += params_.width;
  if (best_prefixes_.empty() || current_cost_ < best_prefixes_.back().cost) {
    best_prefixes_.push_back({steps_, applied_.size(), current_cost_});
  }

  if (current_cost_ < start_cost_ && params_.early_accept) {
    improved_early_ = true;
    done_ = true;
  } else if (applied_.size() >= params_.depth) {
    done_ = true;
  }
}

CompoundMove ClwSearch::result() const {
  if (done_) {
    CompoundMove full;
    full.swaps = applied_;
    full.cost = current_cost_;
    full.improved_early = improved_early_;
    return full;
  }
  return result_at_step(steps_);
}

CompoundMove ClwSearch::result_at_step(std::size_t steps) const {
  PTS_CHECK(steps <= steps_);
  CompoundMove best;
  best.cost = start_cost_;
  for (const auto& snapshot : best_prefixes_) {
    if (snapshot.step > steps) break;
    if (snapshot.cost < best.cost) {
      best.swaps.assign(applied_.begin(),
                        applied_.begin() + static_cast<std::ptrdiff_t>(snapshot.len));
      best.cost = snapshot.cost;
    }
  }
  return best;
}

void ClwSearch::abandon() {
  PTS_CHECK(eval_ != nullptr);
  PTS_CHECK_MSG(!abandoned_, "abandon() called twice without begin()");
  for (auto it = applied_.rbegin(); it != applied_.rend(); ++it) {
    eval_->apply_swap(it->a, it->b);
  }
  abandoned_ = true;
  done_ = true;
}

TswState::TswState(cost::Evaluator& eval, const tabu::TabuParams& tabu_params,
                   const tabu::DiversifyParams& diversify_params,
                   tabu::CellRange diversify_range, Rng rng)
    : eval_(&eval),
      tabu_params_(tabu_params),
      diversify_params_(diversify_params),
      diversify_range_(diversify_range),
      rng_(rng),
      list_(tabu_params.tenure, tabu_params.attribute),
      iter_best_cost_(eval.cost()),
      iter_best_slots_(eval.placement().slots()) {
  diversify_scratch_.reserve(diversify_params_.depth);
}

void TswState::begin_global_iteration() {
  iter_best_cost_ = eval_->cost();
  iter_best_slots_ = eval_->placement().slots();
  improved_since_snapshot_ = false;
  snapshots_.clear();
}

std::size_t TswState::apply_diversification() {
  tabu::diversify(*eval_, diversify_range_, diversify_params_, rng_,
                  &diversify_scratch_);
  // Diversification may improve the iteration best by accident; track it so
  // reports stay consistent with the evaluator state.
  const double cost = eval_->cost();
  if (cost < iter_best_cost_) {
    iter_best_cost_ = cost;
    iter_best_slots_ = eval_->placement().slots();
    improved_since_snapshot_ = true;
  }
  // Work units: each diversification move trialled `width` candidate swaps.
  return diversify_scratch_.size() * diversify_params_.width;
}

int TswState::process_candidates(const std::vector<CompoundMove>& candidates) {
  ++stats_.iterations;
  last_applied_.clear();

  int best_index = -1;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].empty()) continue;
    if (best_index < 0 ||
        candidates[i].cost < candidates[static_cast<std::size_t>(best_index)].cost) {
      best_index = static_cast<int>(i);
    }
  }
  if (best_index < 0) return -1;  // all CLWs were cut before any level completed

  const CompoundMove& winner = candidates[static_cast<std::size_t>(best_index)];
  if (winner.improved_early) ++stats_.early_accepts;

  if (tabu::compound_is_tabu(list_, winner)) {
    const bool aspirated =
        tabu_params_.aspiration && winner.cost < iter_best_cost_;
    if (!aspirated) {
      ++stats_.rejected_tabu;
      return -1;
    }
    ++stats_.aspirated;
  }

  for (const Move& swap : winner.swaps) {
    eval_->apply_swap(swap.a, swap.b);
  }
  tabu::record_compound(list_, winner);
  ++stats_.accepted;
  last_applied_ = winner.swaps;

  const double cost = eval_->cost();
  if (cost < iter_best_cost_) {
    iter_best_cost_ = cost;
    iter_best_slots_ = eval_->placement().slots();
    improved_since_snapshot_ = true;
  }
  return best_index;
}

void TswState::end_local_iteration(double now) {
  if (!improved_since_snapshot_) return;
  snapshots_.push_back({now, iter_best_cost_, iter_best_slots_});
  improved_since_snapshot_ = false;
}

void TswState::adopt(const std::vector<netlist::CellId>& slots,
                     const std::vector<Move>& tabu_entries) {
  eval_->reset_placement(slots);
  if (!tabu_entries.empty()) list_.assign(tabu_entries);
}

const TswState::BestSnapshot* TswState::snapshot_at(double cutoff) const {
  const BestSnapshot* best = nullptr;
  for (const auto& snapshot : snapshots_) {
    if (snapshot.time > cutoff) break;
    best = &snapshot;
  }
  return best;
}

}  // namespace pts::parallel
