#include "parallel/threaded_engine.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "parallel/protocol.hpp"
#include "parallel/worker_logic.hpp"
#include "pvm/vm.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"

namespace pts::parallel {

using netlist::CellId;
using pvm::Message;
using pvm::TaskContext;
using pvm::TaskId;
using tabu::CompoundMove;

namespace {

/// Candidate-list worker task body (paper Figure 4).
void clw_main(TaskContext& ctx, const SearchSetup& setup, tabu::CellRange range,
              Rng algo_rng) {
  auto init = ctx.recv(kTagInit);
  if (!init) return;  // VM shut down before the search started
  const TaskId parent = init->sender();
  auto eval = setup.make_evaluator(decode_init(*init));
  ClwSearch search(range, setup.config.tabu.compound);
  // A step is one compound level of `width` trials, and a force is
  // answered between levels (a cut keeps only whole levels anyway).
  const double level_work =
      setup.config.sim.trial_work *
      static_cast<double>(setup.config.tabu.compound.width);

  for (;;) {
    auto msg = ctx.recv();
    if (!msg || msg->tag() == kTagTerminate) return;
    if (msg->tag() == kTagForceReport) {
      // Stale: the report for that iteration was already sent.
      continue;
    }
    PTS_CHECK_MSG(msg->tag() == kTagSearch, "CLW: unexpected message tag");
    SearchRequest req = SearchRequest::decode(*msg);
    if (!req.reset_slots.empty()) {
      PTS_CHECK(req.sync_swaps.empty());
      eval->reset_placement(req.reset_slots);
    } else {
      for (const auto& swap : req.sync_swaps) eval->apply_swap(swap.a, swap.b);
    }

    search.begin(*eval, algo_rng);
    while (!search.done()) {
      search.step();
      ctx.charge(level_work);
      if (ctx.probe(kTagForceReport)) {
        auto force = ctx.try_recv(kTagForceReport);
        // A force for this iteration cuts it (result() is then the best
        // prefix); a stale one for an older iteration is dropped.
        if (force && decode_force(*force) == req.local_seq) break;
      }
    }
    const CompoundMove result = search.result();
    ClwReport report;
    report.local_seq = req.local_seq;
    report.swaps = result.swaps;
    report.cost = result.cost;
    report.improved_early = result.improved_early;
    search.abandon();
    ctx.send(parent, report.encode());
  }
}

/// Tabu-search worker task body (paper Figure 3).
void tsw_main(TaskContext& ctx, const SearchSetup& setup, std::size_t tsw_index,
              tabu::CellRange diversify_range, const Stopwatch& watch) {
  const auto& cfg = setup.config;
  auto init = ctx.recv(kTagInit);
  if (!init) return;
  const TaskId master = init->sender();
  auto eval = setup.make_evaluator(decode_init(*init));
  TswState state(*eval, cfg.tabu, cfg.diversify, diversify_range,
                 tsw_stream(cfg, tsw_index));

  // Spawn this TSW's candidate-list workers (paper: the lower, 1-control
  // parallelization level) and send them the initial solution.
  const auto clw_ranges =
      tabu::partition_cells(setup.netlist->num_movable(), cfg.clws_per_tsw);
  std::vector<TaskId> clws(cfg.clws_per_tsw);
  for (std::size_t j = 0; j < cfg.clws_per_tsw; ++j) {
    const std::string name =
        "clw" + std::to_string(tsw_index) + "." + std::to_string(j);
    Rng algo_rng = clw_stream(cfg, tsw_index, j);
    clws[j] = ctx.vm().spawn(
        name, [&setup, range = clw_ranges[j], algo_rng](TaskContext& clw_ctx) {
          clw_main(clw_ctx, setup, range, algo_rng);
        });
    ctx.send(clws[j], make_init(eval->placement().slots()));
  }

  for (std::size_t g = 0; g < cfg.global_iterations; ++g) {
    if (g > 0) {
      // Wait for the master's broadcast, draining stale force requests.
      for (;;) {
        auto msg = ctx.recv();
        if (!msg) return;
        if (msg->tag() == kTagTerminate) {
          for (TaskId clw : clws) ctx.send(clw, make_terminate());
          return;
        }
        if (msg->tag() == kTagForceReport) continue;  // stale
        PTS_CHECK_MSG(msg->tag() == kTagBroadcast, "TSW: expected broadcast");
        Broadcast bc = Broadcast::decode(*msg);
        state.adopt(bc.best_slots, bc.tabu_entries);
        break;
      }
    }
    state.begin_global_iteration();
    const std::size_t div_swaps = state.apply_diversification();
    ctx.charge(cfg.sim.diversify_work_per_swap * static_cast<double>(div_swaps));

    bool master_forced = false;
    bool reset_clws = true;
    for (std::size_t l = 0; l < cfg.local_iterations && !master_forced; ++l) {
      const std::uint64_t seq = static_cast<std::uint64_t>(g) *
                                    cfg.local_iterations +
                                l;
      SearchRequest req;
      req.local_seq = seq;
      if (reset_clws) {
        req.reset_slots = eval->placement().slots();
      } else {
        req.sync_swaps = state.last_applied();
      }
      reset_clws = false;
      for (TaskId clw : clws) ctx.send(clw, req.encode());

      // Collect exactly one report per CLW, applying the collection policy.
      std::vector<CompoundMove> candidates(clws.size());
      std::vector<char> reported(clws.size(), 0);
      std::size_t count = 0;
      bool forced_clws = false;
      const std::size_t threshold =
          cfg.tsw_policy.reports_before_force(clws.size());
      auto force_stragglers = [&] {
        if (forced_clws) return;
        forced_clws = true;
        for (std::size_t j = 0; j < clws.size(); ++j) {
          if (!reported[j]) ctx.send(clws[j], make_force(seq));
        }
      };
      while (count < clws.size()) {
        if (count >= threshold) force_stragglers();
        auto msg = ctx.recv();
        if (!msg) return;
        if (msg->tag() == kTagForceReport && msg->sender() == master) {
          const std::uint64_t fg = decode_force(*msg);
          if (fg == g) {
            master_forced = true;
            force_stragglers();  // wind down the in-flight iteration
          }
          continue;
        }
        if (msg->tag() != kTagReport) continue;  // stale force to ignore
        ClwReport report = ClwReport::decode(*msg);
        if (report.local_seq != seq) continue;  // stale (should not happen)
        const auto j = static_cast<std::size_t>(
            std::find(clws.begin(), clws.end(), msg->sender()) - clws.begin());
        PTS_CHECK(j < clws.size());
        CompoundMove move;
        move.swaps = report.swaps;
        move.cost = report.cost;
        move.improved_early = report.improved_early;
        candidates[j] = std::move(move);
        reported[j] = 1;
        ++count;
      }

      if (master_forced) break;  // discard the interrupted iteration
      ctx.charge(cfg.sim.tsw_select_work * static_cast<double>(clws.size()));
      state.process_candidates(candidates);
      state.end_local_iteration(watch.seconds());
    }

    TswReport report;
    report.global_seq = g;
    report.best_cost = state.iteration_best_cost();
    report.best_slots = state.iteration_best_slots();
    report.tabu_entries = state.tabu_list().entries();
    const auto& stats = state.stats();
    report.stat_iterations = stats.iterations;
    report.stat_accepted = stats.accepted;
    report.stat_rejected_tabu = stats.rejected_tabu;
    report.stat_aspirated = stats.aspirated;
    report.stat_early_accepts = stats.early_accepts;
    ctx.send(master, report.encode());
  }

  // Final handshake: wait for Terminate (drain anything else).
  for (;;) {
    auto msg = ctx.recv();
    if (!msg || msg->tag() == kTagTerminate) break;
  }
  for (TaskId clw : clws) ctx.send(clw, make_terminate());
}

}  // namespace

ThreadedEngine::ThreadedEngine(const netlist::Netlist& netlist,
                               const PtsConfig& config)
    : setup_(netlist, config) {}

PtsResult ThreadedEngine::run() { return run(RunControl{}); }

PtsResult ThreadedEngine::run(const RunControl& control) {
  const auto& cfg = setup_.config;
  pvm::VirtualMachine vm(cfg.cluster, cfg.seed,
                         cfg.threaded_seconds_per_unit);
  TaskContext& master = vm.host();
  Stopwatch watch;

  const auto tsw_ranges =
      tabu::partition_cells(setup_.netlist->num_movable(), cfg.num_tsws);
  std::vector<TaskId> tsws(cfg.num_tsws);
  for (std::size_t i = 0; i < cfg.num_tsws; ++i) {
    tsws[i] = vm.spawn("tsw" + std::to_string(i),
                       [this, i, range = tsw_ranges[i], &watch](TaskContext& ctx) {
                         tsw_main(ctx, setup_, i, range, watch);
                       });
    master.send(tsws[i], make_init(setup_.initial_slots));
  }

  PtsResult result;
  result.initial_cost = setup_.initial_cost;
  result.best_vs_time.name = "best_cost";
  result.best_vs_global.name = "best_cost";
  result.best_vs_time.add(0.0, setup_.initial_cost);

  double global_best_cost = setup_.initial_cost;
  std::vector<CellId> global_best_slots = setup_.initial_slots;
  std::vector<tabu::Move> global_best_tabu;
  std::map<TaskId, TswReport> final_reports;

  for (std::size_t g = 0; g < cfg.global_iterations; ++g) {
    std::map<TaskId, TswReport> reports;
    bool forced = false;
    const std::size_t threshold =
        cfg.master_policy.reports_before_force(tsws.size());
    while (reports.size() < tsws.size()) {
      if (reports.size() >= threshold && !forced) {
        forced = true;
        for (TaskId tsw : tsws) {
          if (reports.find(tsw) == reports.end()) {
            master.send(tsw, make_force(g));
          }
        }
      }
      auto msg = master.recv(kTagReport);
      PTS_CHECK_MSG(msg.has_value(), "master: VM shut down mid-search");
      TswReport report = TswReport::decode(*msg);
      PTS_CHECK(report.global_seq == g);
      reports.emplace(msg->sender(), std::move(report));
    }

    // Select the winner in TSW spawn order for deterministic tie-breaks.
    const TswReport* winner = nullptr;
    for (TaskId tsw : tsws) {
      const TswReport& r = reports.at(tsw);
      if (r.best_cost < global_best_cost &&
          (winner == nullptr || r.best_cost < winner->best_cost)) {
        winner = &r;
      }
    }
    if (winner != nullptr) {
      global_best_cost = winner->best_cost;
      global_best_slots = winner->best_slots;
      global_best_tabu = winner->tabu_entries;
      control.notify_improvement(
          {g + 1, watch.seconds(), global_best_cost, global_best_cost});
    }
    result.best_vs_time.add(watch.seconds(), global_best_cost);
    result.best_vs_global.add(static_cast<double>(g), global_best_cost);
    control.notify_iteration(
        {g + 1, watch.seconds(), global_best_cost, global_best_cost});

    // Stop checks run on the master at global-iteration granularity
    // against wall time; a fired condition terminates the TSWs in place of
    // the next broadcast. No check after the final iteration (a run that
    // did all its own work reports Completed). Quality is only
    // materialized (one evaluator build) when a quality target is set.
    bool stop_now = false;
    if (g + 1 < cfg.global_iterations && control.stop.engaged()) {
      double best_quality = 0.0;
      if (control.stop.target_quality.has_value()) {
        best_quality = setup_.make_evaluator(global_best_slots)->quality();
      }
      if (const auto reason = control.should_stop(g + 1, watch.seconds(),
                                                  global_best_cost,
                                                  best_quality)) {
        result.stop_reason = *reason;
        stop_now = true;
      }
    }

    if (!stop_now && g + 1 < cfg.global_iterations) {
      Broadcast bc;
      bc.global_seq = g;
      bc.best_slots = global_best_slots;
      bc.tabu_entries = global_best_tabu;
      for (TaskId tsw : tsws) master.send(tsw, bc.encode());
    } else {
      final_reports = std::move(reports);
      if (stop_now) break;
    }
  }

  result.makespan = watch.seconds();
  for (TaskId tsw : tsws) master.send(tsw, make_terminate());
  vm.shutdown();

  result.best_cost = global_best_cost;
  result.best_slots = global_best_slots;
  auto final_eval = setup_.make_evaluator(global_best_slots);
  result.best_objectives = final_eval->objectives();
  result.best_quality = final_eval->quality();
  for (const auto& [task, report] : final_reports) {
    (void)task;
    tabu::SearchStats s;
    s.iterations = report.stat_iterations;
    s.accepted = report.stat_accepted;
    s.rejected_tabu = report.stat_rejected_tabu;
    s.aspirated = report.stat_aspirated;
    s.early_accepts = report.stat_early_accepts;
    result.stats.merge(s);
  }
  return result;
}

}  // namespace pts::parallel
