#include "parallel/sim_engine.hpp"

#include <algorithm>
#include <limits>

namespace pts::parallel {

using netlist::CellId;
using tabu::CompoundMove;

SimEngine::SimEngine(const netlist::Netlist& netlist, const PtsConfig& config)
    : setup_(netlist, config) {
  const auto& cfg = setup_.config;
  Rng root(cfg.seed ^ 0x9e3779b97f4a7c15ULL);

  // Task -> machine binding mirrors the threaded engine's spawn order:
  // task 0 = master, tasks 1..T = TSWs, then each TSW's CLWs in TSW order.
  // Contention: tasks sharing a machine time-share it in proportion to how
  // busy they are — CLWs compute continuously (activity weight 1.0), TSWs
  // mostly wait on their CLWs (cfg.sim.tsw_activity), the master is
  // negligible. A task on a machine whose total activity weight is W > 1
  // runs at speed / W.
  const std::size_t first_clw_task = 1 + cfg.num_tsws;
  const std::size_t num_tasks =
      1 + cfg.num_tsws + cfg.num_tsws * cfg.clws_per_tsw;
  std::vector<double> activity_on_machine(cfg.cluster.size(), 0.0);
  for (std::size_t task = 1; task < num_tasks; ++task) {
    activity_on_machine[task % cfg.cluster.size()] +=
        task < first_clw_task ? cfg.sim.tsw_activity : 1.0;
  }
  const auto machine_of = [&](std::size_t task_index) {
    pvm::MachineProfile profile = cfg.cluster.machine_for_task(task_index);
    if (cfg.sim.model_contention && task_index >= 1) {
      const double weight = activity_on_machine[task_index % cfg.cluster.size()];
      if (weight > 1.0) profile.speed /= weight;
    }
    return profile;
  };

  const auto tsw_ranges =
      tabu::partition_cells(netlist.num_movable(), cfg.num_tsws);
  const auto clw_ranges =
      tabu::partition_cells(netlist.num_movable(), cfg.clws_per_tsw);

  // Algorithm streams: tsw_stream / clw_stream, as in the threaded engine.
  // Timing jitter streams stay per-task — they model machine load, not
  // algorithm randomness.
  tsws_.resize(cfg.num_tsws);
  for (std::size_t i = 0; i < cfg.num_tsws; ++i) {
    SimTsw& tsw = tsws_[i];
    tsw.eval = setup_.make_evaluator(setup_.initial_slots);
    tsw.state = std::make_unique<TswState>(*tsw.eval, cfg.tabu, cfg.diversify,
                                           tsw_ranges[i], tsw_stream(cfg, i));
    tsw.machine = machine_of(1 + i);
    tsw.base_speed = tsw.machine.speed;
    tsw.time_rng = root.fork(2000 + i);
    tsw.clws.reserve(cfg.clws_per_tsw);
    for (std::size_t j = 0; j < cfg.clws_per_tsw; ++j) {
      tsw.clws.emplace_back(clw_ranges[j], cfg.tabu.compound);
      ClwSlot& clw = tsw.clws.back();
      clw.algo_rng = clw_stream(cfg, i, j);
      clw.time_rng = root.fork(4000 + i * 64 + j);
      clw.machine = machine_of(1 + cfg.num_tsws + i * cfg.clws_per_tsw + j);
      clw.base_speed = clw.machine.speed;
    }
  }
}

void SimEngine::run_local_iteration(SimTsw& tsw) {
  const auto& cfg = setup_.config;
  const SimCosts& costs = cfg.sim;
  const double start = tsw.clock + costs.message_latency;  // search request hop

  // Run every CLW to completion on the TSW's evaluator (sequentially; each
  // restores the evaluator afterwards), recording per-trial end offsets.
  for (ClwSlot& clw : tsw.clws) {
    clw.search.begin(*tsw.eval, clw.algo_rng);
    clw.trial_end.clear();
    double t = 0.0;
    while (!clw.search.done()) {
      clw.search.step();
      // A step runs a whole level, but each of its trials is charged its
      // own jittered `trial_work` virtual units, as the paper's work/speed
      // ratios (Figs. 5-11) require: probing instead of mutate-and-undo
      // and batching a level speed up wall-clock, not virtual time.
      while (clw.trial_end.size() < clw.search.steps_taken()) {
        t += clw.machine.time_for(costs.trial_work, clw.time_rng);
        clw.trial_end.push_back(t);
      }
    }
    clw.search.abandon();
  }

  // Finish instants and the collection policy.
  std::vector<double> finish(tsw.clws.size());
  for (std::size_t j = 0; j < tsw.clws.size(); ++j) {
    finish[j] = start + tsw.clws[j].trial_end.back();
  }
  std::vector<double> sorted = finish;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t k = cfg.tsw_policy.reports_before_force(tsw.clws.size());
  const double kth_finish = sorted[k - 1];

  double iteration_end;
  std::vector<CompoundMove> candidates(tsw.clws.size());
  if (k == tsw.clws.size()) {
    // WaitAll (or a single CLW): every report is complete.
    for (std::size_t j = 0; j < tsw.clws.size(); ++j) {
      candidates[j] = tsw.clws[j].search.result();
    }
    iteration_end = sorted.back() + costs.message_latency;
  } else {
    // HalfForce: the force message reaches stragglers one latency after the
    // k-th report arrives at the TSW.
    const double cutoff = kth_finish + 2.0 * costs.message_latency;
    for (std::size_t j = 0; j < tsw.clws.size(); ++j) {
      ClwSlot& clw = tsw.clws[j];
      if (finish[j] <= cutoff) {
        candidates[j] = clw.search.result();
      } else {
        // Trials completed by the cutoff instant.
        const auto done_trials = static_cast<std::size_t>(
            std::upper_bound(clw.trial_end.begin(), clw.trial_end.end(),
                             cutoff - start) -
            clw.trial_end.begin());
        candidates[j] = clw.search.result_at_step(done_trials);
      }
    }
    iteration_end = cutoff + costs.message_latency;  // forced reports return
  }

  // TSW selection + tabu test.
  tsw.clock = iteration_end +
              tsw.machine.time_for(
                  costs.tsw_select_work * static_cast<double>(tsw.clws.size()),
                  tsw.time_rng);
  tsw.state->process_candidates(candidates);
  tsw.state->end_local_iteration(tsw.clock);
}

PtsResult SimEngine::run() { return run(RunControl{}); }

PtsResult SimEngine::run(const RunControl& control) {
  const auto& cfg = setup_.config;
  const SimCosts& costs = cfg.sim;
  const pvm::MachineProfile& master_machine = cfg.cluster.machine_for_task(0);
  Rng master_time_rng(cfg.seed ^ 0x5851f42d4c957f2dULL);

  PtsResult result;
  result.initial_cost = setup_.initial_cost;
  result.best_vs_time.name = "best_cost";
  result.best_vs_global.name = "best_cost";

  double global_best_cost = setup_.initial_cost;
  std::vector<CellId> global_best_slots = setup_.initial_slots;
  std::vector<tabu::Move> global_best_tabu;
  result.best_vs_time.add(0.0, global_best_cost);

  // Stop checks run at global-iteration granularity against the virtual
  // clock, so time limits are deterministic. Quality is only materialized
  // (one evaluator build) when a quality target is actually set.
  const auto stop_check = [&](std::size_t iterations_done,
                              double now) -> std::optional<StopReason> {
    if (!control.stop.engaged()) return std::nullopt;
    double best_quality = 0.0;
    if (control.stop.target_quality.has_value()) {
      best_quality = setup_.make_evaluator(global_best_slots)->quality();
    }
    return control.should_stop(iterations_done, now, global_best_cost,
                               best_quality);
  };
  if (const auto reason = stop_check(0, 0.0)) result.stop_reason = *reason;

  // Scripted faults: with an empty script nothing fires, every stall
  // scale is 1 and the report deadline is +inf, so no TSW is declared lost
  // and the collection policy alone shapes each collection.
  const fault::WorkerFaultScript& faults = cfg.faults;
  const double inf = std::numeric_limits<double>::infinity();
  const double report_deadline =
      faults.enabled() ? std::max(faults.report_deadline, 0.0) : inf;

  double broadcast_time = costs.message_latency;  // Init hop to the TSWs
  for (std::size_t g = 0; result.stop_reason == StopReason::Completed &&
                          g < cfg.global_iterations;
       ++g) {
    // Fire scripted faults and apply stall scaling for this iteration.
    for (const auto& f : faults.faults) {
      if (f.at_iteration != g || f.worker >= tsws_.size()) continue;
      SimTsw& victim = tsws_[f.worker];
      if (victim.dead_task) continue;
      if (f.kind == fault::WorkerFault::Kind::Death) {
        victim.dead_task = true;
      } else {
        victim.stall_left = f.stall_iterations;
        victim.stall_factor = f.stall_factor < 1.0 ? 1.0 : f.stall_factor;
      }
    }
    for (SimTsw& tsw : tsws_) {
      const double scale = tsw.stall_left > 0 ? tsw.stall_factor : 1.0;
      tsw.machine.speed = tsw.base_speed / scale;
      for (ClwSlot& clw : tsw.clws) clw.machine.speed = clw.base_speed / scale;
    }

    // -- TSW phase (independent virtual timelines) ------------------------
    for (SimTsw& tsw : tsws_) {
      if (tsw.lost || tsw.dead_task) continue;
      tsw.clock = broadcast_time;
      if (g > 0) tsw.state->adopt(global_best_slots, global_best_tabu);
      tsw.state->begin_global_iteration();
      const std::size_t div_swaps = tsw.state->apply_diversification();
      tsw.clock += tsw.machine.time_for(
          costs.diversify_work_per_swap * static_cast<double>(div_swaps),
          tsw.time_rng);
      for (std::size_t l = 0; l < cfg.local_iterations; ++l) {
        run_local_iteration(tsw);
      }
      if (tsw.stall_left > 0) --tsw.stall_left;
    }

    // -- master collection ------------------------------------------------
    // Only TSWs the master still believes in are expected to report; a
    // report that would arrive past the deadline (earliest arrival +
    // report_deadline) marks its TSW dead for good.
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < tsws_.size(); ++i) {
      if (!tsws_[i].lost) live.push_back(i);
    }
    std::vector<double> finish(tsws_.size(), inf);
    double min_finish = inf;
    for (const std::size_t i : live) {
      if (tsws_[i].dead_task) continue;
      finish[i] = tsws_[i].clock + costs.message_latency;  // report hop
      min_finish = std::min(min_finish, finish[i]);
    }
    const double deadline_instant =
        (min_finish == inf ? broadcast_time : min_finish) + report_deadline;
    bool lost_this_round = false;
    {
      std::vector<std::size_t> survivors;
      for (const std::size_t i : live) {
        if (finish[i] > deadline_instant) {
          tsws_[i].lost = true;
          tsws_[i].dead_task = true;  // stop simulating an abandoned task
          ++result.workers_lost;
          lost_this_round = true;
        } else {
          survivors.push_back(i);
        }
      }
      live.swap(survivors);
    }
    if (live.empty()) {
      // Every worker is gone; the search ends with the best known so far.
      result.best_vs_global.add(static_cast<double>(g), global_best_cost);
      result.makespan = deadline_instant;
      break;
    }
    if (lost_this_round) {
      // Redistribute the movable cells among the survivors so the whole
      // space stays covered by diversification.
      const auto ranges = tabu::partition_cells(
          setup_.netlist->num_movable(), live.size());
      for (std::size_t idx = 0; idx < live.size(); ++idx) {
        tsws_[live[idx]].state->set_diversify_range(ranges[idx]);
      }
    }

    std::vector<double> sorted;
    sorted.reserve(live.size());
    for (const std::size_t i : live) sorted.push_back(finish[i]);
    std::sort(sorted.begin(), sorted.end());
    const std::size_t k = cfg.master_policy.reports_before_force(live.size());
    const double kth_arrival = sorted[k - 1];

    for (const std::size_t i : live) {
      SimTsw& tsw = tsws_[i];
      tsw.was_cut = false;
      if (k == live.size() || finish[i] <= kth_arrival) {
        tsw.report_time = finish[i];
        tsw.report_cost = tsw.state->iteration_best_cost();
        tsw.report_slots = tsw.state->iteration_best_slots();
      } else {
        // Straggler: forced at (kth arrival + force hop); it reports the
        // best snapshot it had at that instant.
        const double cutoff = kth_arrival + costs.message_latency;
        tsw.was_cut = true;
        tsw.report_time = cutoff + costs.message_latency;
        if (const auto* snapshot = tsw.state->snapshot_at(cutoff)) {
          tsw.report_cost = snapshot->cost;
          tsw.report_slots = snapshot->slots;
        } else {
          tsw.report_cost = inf;
          tsw.report_slots.clear();
        }
      }
    }
    double collect_end = 0.0;
    for (const std::size_t i : live) {
      collect_end = std::max(collect_end, tsws_[i].report_time);
    }
    // Declaring a death costs real waiting: the master sat out the full
    // deadline before giving up on the missing report.
    if (lost_this_round) collect_end = std::max(collect_end, deadline_instant);
    collect_end += master_machine.time_for(
        costs.master_select_work * static_cast<double>(live.size()),
        master_time_rng);

    // -- selection + trajectory -------------------------------------------
    int winner = -1;
    for (std::size_t i = 0; i < tsws_.size(); ++i) {
      if (tsws_[i].lost) continue;
      if (tsws_[i].report_cost < global_best_cost) {
        if (winner < 0 ||
            tsws_[i].report_cost <
                tsws_[static_cast<std::size_t>(winner)].report_cost) {
          winner = static_cast<int>(i);
        }
      }
    }
    // Improvement events: every TSW snapshot that precedes its report time
    // entered the system at its snapshot instant.
    std::vector<std::pair<double, double>> events;
    for (const SimTsw& tsw : tsws_) {
      if (tsw.lost) continue;  // its reports never reached the master
      const double limit =
          tsw.was_cut ? tsw.report_time : std::numeric_limits<double>::infinity();
      for (const auto& snapshot : tsw.state->snapshots()) {
        if (snapshot.time <= limit) events.emplace_back(snapshot.time, snapshot.cost);
      }
    }
    std::sort(events.begin(), events.end());
    for (const auto& [time, cost] : events) {
      if (cost < result.best_vs_time.y.back()) {
        result.best_vs_time.add(time, cost);
        control.notify_improvement({g + 1, time, cost, cost});
      }
    }

    if (winner >= 0) {
      SimTsw& win = tsws_[static_cast<std::size_t>(winner)];
      global_best_cost = win.report_cost;
      global_best_slots = win.report_slots;
      global_best_tabu = win.state->tabu_list().entries();
    }
    result.best_vs_global.add(static_cast<double>(g), global_best_cost);
    broadcast_time = collect_end + costs.message_latency;
    result.makespan = collect_end;
    control.notify_iteration(
        {g + 1, collect_end, global_best_cost, global_best_cost});
    // No check after the final iteration: a run that did all its own work
    // reports Completed, matching the sequential engines' check-before
    // semantics (an external budget equal to the engine's own is a no-op).
    if (g + 1 < cfg.global_iterations) {
      if (const auto reason = stop_check(g + 1, collect_end)) {
        result.stop_reason = *reason;
      }
    }
  }

  // -- final result -------------------------------------------------------
  result.best_cost = global_best_cost;
  result.best_slots = global_best_slots;
  auto final_eval = setup_.make_evaluator(global_best_slots);
  result.best_objectives = final_eval->objectives();
  result.best_quality = final_eval->quality();
  for (const SimTsw& tsw : tsws_) result.stats.merge(tsw.state->stats());
  return result;
}

}  // namespace pts::parallel
