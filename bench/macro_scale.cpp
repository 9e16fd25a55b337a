// Scale-tier macro benchmark: proves the system stays linear at 15x–90x the
// paper's largest circuit. For each scale circuit (scale10k/scale50k, and
// scale200k under --full) it reports:
//
//   build      netlist generation + finalize (CSR topology) wall time
//   setup      layout + random placement + K-paths + evaluator construction
//   paths      the K-paths extraction alone (uniform-delay STA + walk-back),
//              part of setup
//   probe      steady-state trial-probe throughput (the search inner loop)
//   engines    a short tabu / anneal / parallel-sim / parallel-shared run
//              through the solver front door: wall time, makespan (virtual
//              seconds for parallel-sim), cost before/after, and tt50 — the
//              engine-clock instant the run had realized half of its own
//              improvement.
//   profile    the probe layer by layer on 2,048 sampled pairs: equal vs
//              unequal widths, moved cells / touched nets / pins per probe,
//              the share of touched nets scored on the runner-up O(1) path,
//              the share of committed nets recomputed from their pins, and
//              ns per phase (moved list + overlay staging, net marking, box
//              kernel, delay replay, OWA). Each phase is bracketed by
//              steady-clock reads, whose own cost lands in the phases.
//   scaling    strong-scaling counters for the shared-memory backend: the
//              same parallel-shared run at 1/2/4/8 requested threads, each
//              count's makespan the median of 5 rounds that alternate the
//              counts, reporting the threads the engine used (it clamps to
//              compound width / 16), trial throughput (probes/s) and
//              speedup vs its own 1-thread run. The trajectory is
//              thread-count invariant, so every point does identical work —
//              the ratio isolates parallel efficiency.
//
// Tiers follow bench_common: --smoke (CI; scale10k only, clamped budgets),
// default (scale10k + scale50k), --full (adds scale200k). --circuit
// restricts to one circuit (any benchmark name, paper circuits included).
//
// Each circuit additionally emits one `MACRO {json}` line; bench/dump_json.py
// parses and schema-validates those into the BENCH_*.json perf trail.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cost/evaluator.hpp"
#include "netlist/benchmarks.hpp"
#include "parallel/shared_engine.hpp"
#include "placement/hpwl.hpp"
#include "placement/overlay.hpp"
#include "placement/placement.hpp"
#include "solver/solver.hpp"
#include "support/stopwatch.hpp"
#include "timing/paths.hpp"

namespace {

using namespace pts;

struct EngineReport {
  std::string name;
  double wall_ms = 0.0;
  double makespan_s = 0.0;
  double initial_cost = 0.0;
  double best_cost = 0.0;
  double best_quality = 0.0;
  double tt50_s = -1.0;  ///< engine clock to half of the run's improvement
};

solver::SolveSpec engine_spec(const netlist::Netlist& nl,
                              const std::string& engine,
                              const bench::BenchOptions& options) {
  solver::SolveSpec spec = experiments::base_spec(nl, engine, /*seed=*/1,
                                                  /*quick=*/true);
  // Short fixed budgets: the point is "completes and improves at scale",
  // not converged quality. Traces off where they would be per-move.
  spec.tabu.iterations = options.smoke ? 10 : 40;
  spec.tabu.trace_stride = 0;
  spec.anneal.moves_per_temp = options.smoke ? 500 : 2000;
  spec.anneal.cooling = 0.80;
  spec.anneal.trace_stride = 0;
  bench::apply_scale(spec.parallel, options);
  return spec;
}

EngineReport run_engine(const netlist::Netlist& nl, const std::string& engine,
                        const bench::BenchOptions& options) {
  const solver::SolveSpec spec = engine_spec(nl, engine, options);
  EngineReport report;
  report.name = engine;
  const Stopwatch watch;
  const solver::SolveResult result = solver::Solver().solve(spec);
  report.wall_ms = watch.millis();
  report.makespan_s = result.makespan;
  report.initial_cost = result.initial_cost;
  report.best_cost = result.best_cost;
  report.best_quality = result.best_quality;
  if (result.best_vs_time.size() > 0 && result.best_cost < result.initial_cost) {
    report.tt50_s = result.time_to_cost(
        experiments::improvement_threshold(result, 0.5));
  }
  return report;
}

struct ProbeProfile {
  std::size_t pairs = 0;
  std::size_t equal = 0;    ///< pairs of equal cell widths
  std::size_t unequal = 0;  ///< pairs whose swap shifts row tails
  double moved_cells = 0.0;  ///< per probe
  double nets = 0.0;         ///< touched nets per probe
  double pins = 0.0;         ///< pins of the touched nets per probe
  double o1_share = 0.0;      ///< touched nets scored from the runner-ups
  double rescan_share = 0.0;  ///< committed nets recomputed from their pins
  // Mean ns per probe in each phase, and per probe of each width class.
  // The overlay phase builds the moved list and the overlay and stamps the
  // moved cells' would-be positions.
  double overlay_ns = 0.0;
  double marking_ns = 0.0;
  double box_ns = 0.0;
  double delay_ns = 0.0;
  double owa_ns = 0.0;
  double equal_probe_ns = 0.0;
  double unequal_probe_ns = 0.0;
};

// Scores sampled pairs phase by phase with the same pieces, in the same
// order, as Evaluator::probe_batch at width 1 — against `eval`'s committed
// placement and HPWL state, a PathTimer rebuilt from them, and `eval`'s
// goals — then commits a stream of pairs through `eval` to measure how
// many committed nets the runner-up update had to recompute.
ProbeProfile profile_probes(const netlist::Netlist& nl, cost::Evaluator& eval,
                            std::shared_ptr<const timing::PathSet> paths,
                            const cost::CostParams& params) {
  using Clock = std::chrono::steady_clock;
  const placement::Placement& placement = eval.placement();
  const placement::HpwlState& hpwl = eval.hpwl();
  const netlist::Topology& topo = nl.topology();
  timing::PathTimer timer(paths, hpwl, params.delay_model);
  const auto py = placement.positions_y();
  placement::MovedPositions staged(nl.num_cells());
  placement::NetMarker marker(nl.num_nets());
  std::vector<netlist::CellId> moved;
  moved.reserve(nl.num_cells());
  std::vector<placement::NetChange> changes;
  changes.reserve(nl.num_nets());
  std::vector<double> peek_sums;
  std::vector<cost::Objectives> objs(1);
  std::vector<double> costs(1);

  const auto& movable = nl.movable_cells();
  Rng rng(0x9a125);
  ProbeProfile prof;
  prof.pairs = 2048;
  std::vector<cost::Move> pairs;
  while (pairs.size() < prof.pairs) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    pairs.push_back({movable[ia], movable[ib]});
  }
  double o1_nets = 0.0;
  double t_overlay = 0.0, t_mark = 0.0, t_box = 0.0, t_delay = 0.0,
         t_owa = 0.0, t_equal = 0.0, t_unequal = 0.0;
  const auto ns = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::nano>(to - from).count();
  };
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms every buffer
    for (const cost::Move& m : pairs) {
      const auto t0 = Clock::now();
      moved.clear();
      const placement::SwapOverlay ov =
          placement::build_swap_overlay(placement, m.a, m.b, &moved);
      placement::stage_moved(placement, ov, moved, &staged);
      const auto t1 = Clock::now();
      marker.begin();
      for (netlist::CellId c : moved) marker.add_nets_of(topo, c);
      const auto t2 = Clock::now();
      const placement::RowMovers movers = py[m.a] != py[m.b]
                                              ? placement::RowMovers{m.a, m.b}
                                              : placement::RowMovers{};
      changes.clear();
      const double delta =
          hpwl.probe_nets_batch(staged, marker, movers, &changes, nullptr);
      const auto t3 = Clock::now();
      const double delay = timer.peek_delta(changes, peek_sums);
      const auto t4 = Clock::now();
      objs[0] = {hpwl.total() + delta, delay,
                 ov.max_extent * placement.layout().core_height()};
      eval.goals().cost_batch(objs, costs);
      const auto t5 = Clock::now();
      if (pass == 0) continue;

      const bool equal = topo.cell_width(m.a) == topo.cell_width(m.b);
      (equal ? prof.equal : prof.unequal) += 1;
      prof.moved_cells += static_cast<double>(moved.size());
      const auto nets = marker.nets();
      prof.nets += static_cast<double>(nets.size());
      for (std::size_t k = 0; k < nets.size(); ++k) {
        prof.pins += static_cast<double>(topo.pins(nets[k]).size());
        const netlist::CellId c = marker.first_cells()[k];
        o1_nets += (marker.cell_counts()[k] == 1 && c != movers.a &&
                    c != movers.b)
                       ? 1.0
                       : 0.0;
      }
      t_overlay += ns(t0, t1);
      t_mark += ns(t1, t2);
      t_box += ns(t2, t3);
      t_delay += ns(t3, t4);
      t_owa += ns(t4, t5);
      (equal ? t_equal : t_unequal) += ns(t0, t5);
    }
  }
  const double n = static_cast<double>(prof.pairs);
  prof.o1_share = o1_nets / std::max(prof.nets, 1.0);
  prof.moved_cells /= n;
  prof.nets /= n;
  prof.pins /= n;
  prof.overlay_ns = t_overlay / n;
  prof.marking_ns = t_mark / n;
  prof.box_ns = t_box / n;
  prof.delay_ns = t_delay / n;
  prof.owa_ns = t_owa / n;
  prof.equal_probe_ns = t_equal / std::max<double>(1.0, prof.equal);
  prof.unequal_probe_ns = t_unequal / std::max<double>(1.0, prof.unequal);

  // Commit stream: every sampled pair promoted, then undone (both count).
  const std::uint64_t committed0 = hpwl.committed_nets();
  const std::uint64_t rescanned0 = hpwl.rescanned_nets();
  for (const cost::Move& m : pairs) {
    eval.probe_swap(m.a, m.b);
    eval.commit_probe();
    eval.apply_swap(m.a, m.b);
  }
  prof.rescan_share =
      static_cast<double>(hpwl.rescanned_nets() - rescanned0) /
      std::max<double>(1.0, static_cast<double>(hpwl.committed_nets() -
                                                committed0));
  return prof;
}

struct ScalingPoint {
  std::size_t threads = 1;       ///< requested
  std::size_t threads_used = 1;  ///< after the engine's clamp
  double makespan_s = 0.0;       ///< median over the rounds
  double trials_per_s = 0.0;
  double speedup_vs_1 = 1.0;
};

// Strong scaling for the shared-memory backend: identical search (the
// trajectory is thread-count invariant) timed at each thread count, so the
// throughput ratio is pure parallel efficiency. A scale10k --smoke run
// takes 5-10 ms, well inside one VM's run-to-run swing, so each count
// reports the median of kRounds runs, and the rounds alternate the counts
// so a slow spell lands on all of them alike.
std::vector<ScalingPoint> run_shared_scaling(const netlist::Netlist& nl,
                                             const bench::BenchOptions& options) {
  constexpr std::size_t kRounds = 5;
  const std::size_t counts[] = {1, 2, 4, 8};
  const solver::SolveSpec spec = engine_spec(nl, "parallel-shared", options);
  std::vector<ScalingPoint> points(std::size(counts));
  std::vector<std::vector<double>> makespans(std::size(counts));
  double trials = 0.0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < std::size(counts); ++i) {
      // The solver adapter's config, so this is the engine "parallel-shared"
      // runs; called directly for threads_used.
      parallel::SharedConfig config;
      config.params.threads = counts[i];
      config.tabu = spec.tabu;
      config.cost = spec.cost;
      config.init_seed = spec.seed ^ solver::kInitStreamSalt;
      config.search_seed = spec.seed ^ solver::kSearchStreamSalt;
      const parallel::SharedResult r = parallel::SharedEngine(nl, config).run(
          RunControl{spec.stop, nullptr});
      points[i].threads = counts[i];
      points[i].threads_used = r.threads_used;
      makespans[i].push_back(r.makespan);
      trials = static_cast<double>(r.search.stats.trials);
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::sort(makespans[i].begin(), makespans[i].end());
    points[i].makespan_s = makespans[i][kRounds / 2];
    points[i].trials_per_s = trials / std::max(points[i].makespan_s, 1e-9);
    points[i].speedup_vs_1 = points[i].trials_per_s / points[0].trials_per_s;
  }
  return points;
}

struct EcoReport {
  std::uint64_t cold_trials = 0;   ///< probes to finish the from-scratch run
  std::uint64_t warm_trials = 0;   ///< probes to match its quality warm
  double trials_ratio = 0.0;       ///< warm / cold (ECO acceptance: <= 0.5)
  double cold_best_cost = 0.0;
  double warm_initial_cost = 0.0;  ///< cost of the dislodged placement
  double warm_best_cost = 0.0;
  bool warm_reached_target = false;
};

// ECO mode: solve from scratch (the cold run), dislodge a handful of cells
// from the solved placement (the "engineering change"), then re-solve warm
// from the dislodged placement with the cold run's final cost as the stop
// target. The counter pair (cold_trials, warm_trials) is the headline
// warm-start claim: an ECO re-spin should match the cold run's quality in
// a fraction of its search effort.
EcoReport run_eco(const netlist::Netlist& nl,
                  const bench::BenchOptions& options) {
  solver::SolveSpec cold_spec = engine_spec(nl, "tabu", options);
  cold_spec.tabu.iterations = options.smoke ? 40 : 160;
  const solver::SolveResult cold = solver::Solver().solve(cold_spec);

  auto dislodged = cold.best_slots;
  Rng rng(7);
  for (int i = 0; i < 6; ++i) {
    const auto [a, b] = rng.distinct_pair(dislodged.size());
    std::swap(dislodged[a], dislodged[b]);
  }

  solver::SolveSpec warm_spec = cold_spec;
  warm_spec.initial_slots = std::move(dislodged);
  // Tiny slack on the target: the cold best is tracked incrementally while
  // the warm run evaluates from scratch, so bit-equality is not reachable.
  warm_spec.stop.target_cost =
      cold.best_cost + 1e-9 * std::abs(cold.best_cost);
  const solver::SolveResult warm = solver::Solver().solve(warm_spec);

  EcoReport eco;
  eco.cold_trials = cold.stats.trials;
  eco.warm_trials = warm.stats.trials;
  eco.trials_ratio = static_cast<double>(warm.stats.trials) /
                     std::max<double>(1.0, static_cast<double>(cold.stats.trials));
  eco.cold_best_cost = cold.best_cost;
  eco.warm_initial_cost = warm.initial_cost;
  eco.warm_best_cost = warm.best_cost;
  eco.warm_reached_target = warm.stop_reason == StopReason::TargetCost;
  return eco;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_options(argc, argv);
  // Scale-tier circuit selection (parse_options defaults target the paper
  // circuits); an explicit --circuit always wins.
  const Cli cli(argc, argv);
  if (!cli.has("circuit")) {
    if (options.smoke) {
      options.circuits = {"scale10k"};
    } else if (cli.get_flag("full")) {
      options.circuits = experiments::scale_circuit_names();  // + scale200k
    } else {
      options.circuits = {"scale10k", "scale50k"};
    }
  }

  bench::print_header("macro_scale",
                      "build / probe / time-to-quality at 10k-200k gates");
  std::printf("%-10s %10s %10s %12s  %s\n", "circuit", "build ms", "setup ms",
              "probe ns/op", "engine runs (wall ms | best cost | tt50 s)");

  for (const std::string& name : options.circuits) {
    Stopwatch watch;
    const netlist::Netlist nl = netlist::make_benchmark(name);
    const double build_ms = watch.millis();

    watch.reset();
    const placement::Layout layout(nl);
    cost::CostParams params;
    Rng rng(1);
    auto placement = placement::Placement::random(nl, layout, rng);
    const Stopwatch paths_watch;
    auto paths =
        timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
    const double paths_ms = paths_watch.millis();
    const cost::FuzzyGoals goals =
        cost::Evaluator::calibrate_goals(placement, *paths, params);
    cost::Evaluator eval(std::move(placement), paths, params, goals);
    const double setup_ms = watch.millis();

    // Steady-state probe throughput over random candidate swaps (warm-up
    // first so every scratch buffer reaches its high-water mark).
    const auto& movable = nl.movable_cells();
    Rng probe_rng(2);
    const std::size_t warmup = 1000;
    const std::size_t probes = options.smoke ? 20'000 : 50'000;
    for (std::size_t i = 0; i < warmup; ++i) {
      const auto [ia, ib] = probe_rng.distinct_pair(movable.size());
      eval.probe_swap(movable[ia], movable[ib]);
    }
    watch.reset();
    double sink = 0.0;
    for (std::size_t i = 0; i < probes; ++i) {
      const auto [ia, ib] = probe_rng.distinct_pair(movable.size());
      sink += eval.probe_swap(movable[ia], movable[ib]);
    }
    const double probe_ns = watch.seconds() * 1e9 / static_cast<double>(probes);

    // Batched probe throughput at the production batch width (the same
    // candidate distribution, scored through Evaluator::probe_batch eight
    // at a time — the width base_config plumbs into every candidate loop).
    const std::size_t batch_width = 8;
    std::vector<cost::Move> batch_moves(batch_width);
    std::vector<double> batch_costs(batch_width);
    const auto fill_batch = [&] {
      for (std::size_t w = 0; w < batch_width; ++w) {
        const auto [ia, ib] = probe_rng.distinct_pair(movable.size());
        batch_moves[w] = {movable[ia], movable[ib]};
      }
    };
    for (std::size_t i = 0; i < warmup / batch_width; ++i) {
      fill_batch();
      eval.probe_batch(batch_moves, batch_costs);
    }
    const std::size_t batch_rounds = probes / batch_width;
    watch.reset();
    for (std::size_t i = 0; i < batch_rounds; ++i) {
      fill_batch();
      eval.probe_batch(batch_moves, batch_costs);
      sink += batch_costs[0];
    }
    const double batch_probe_ns =
        watch.seconds() * 1e9 /
        static_cast<double>(batch_rounds * batch_width);
    const double batch_speedup = probe_ns / batch_probe_ns;
    const ProbeProfile prof = profile_probes(nl, eval, paths, params);

    std::vector<EngineReport> engines;
    for (const char* engine :
         {"tabu", "anneal", "parallel-sim", "parallel-shared"}) {
      engines.push_back(run_engine(nl, engine, options));
    }
    const std::vector<ScalingPoint> scaling = run_shared_scaling(nl, options);
    const EcoReport eco = run_eco(nl, options);

    std::printf("%-10s %10.1f %10.1f %12.1f  batch8 %.1f ns/op (%.2fx)  ",
                name.c_str(), build_ms, setup_ms, probe_ns, batch_probe_ns,
                batch_speedup);
    for (const EngineReport& e : engines) {
      std::printf("%s: %.0f | %.4f | %.3g   ", e.name.c_str(), e.wall_ms,
                  e.best_cost, e.tt50_s);
    }
    std::printf("(probe sink %.3g)\n", sink);
    std::printf(
        "%-10s probe profile: %zu equal / %zu unequal, %.1f moved cells, "
        "%.1f nets, %.1f pins per probe; O(1) nets %.3f, commit rescans "
        "%.3f; ns overlay %.0f | marking %.0f | box %.0f | delay %.0f | "
        "owa %.0f (equal %.0f, unequal %.0f per probe)\n",
        "", prof.equal, prof.unequal, prof.moved_cells, prof.nets, prof.pins,
        prof.o1_share, prof.rescan_share, prof.overlay_ns, prof.marking_ns,
        prof.box_ns, prof.delay_ns, prof.owa_ns, prof.equal_probe_ns,
        prof.unequal_probe_ns);
    std::printf("%-10s shared scaling:", "");
    for (const ScalingPoint& p : scaling) {
      std::printf("  %zuT(%zu used) %.3gx (%.3g trials/s)", p.threads,
                  p.threads_used, p.speedup_vs_1, p.trials_per_s);
    }
    std::printf("\n");
    std::printf(
        "%-10s eco: cold %llu trials -> warm %llu trials (%.3fx)%s\n", "",
        static_cast<unsigned long long>(eco.cold_trials),
        static_cast<unsigned long long>(eco.warm_trials), eco.trials_ratio,
        eco.warm_reached_target ? "" : "  [target NOT reached]");

    // Machine-readable line for bench/dump_json.py (schema-validated there).
    std::printf(
        "MACRO {\"circuit\":\"%s\",\"gates\":%zu,\"nets\":%zu,\"pins\":%zu,"
        "\"logic_depth\":%zu,\"build_ms\":%.3f,\"setup_ms\":%.3f,"
        "\"paths_ms\":%.3f,\"probe_ns\":%.3f,\"batch_probe_ns\":%.3f,"
        "\"batch_speedup\":%.3f,\"engines\":{",
        name.c_str(), nl.num_movable(), nl.num_nets(), nl.num_pins(),
        nl.logic_depth(), build_ms, setup_ms, paths_ms, probe_ns,
        batch_probe_ns, batch_speedup);
    for (std::size_t i = 0; i < engines.size(); ++i) {
      const EngineReport& e = engines[i];
      std::printf(
          "%s\"%s\":{\"wall_ms\":%.3f,\"makespan_s\":%.6f,"
          "\"initial_cost\":%.9g,\"best_cost\":%.9g,\"best_quality\":%.9g,"
          "\"tt50_s\":%.6f}",
          i == 0 ? "" : ",", e.name.c_str(), e.wall_ms, e.makespan_s,
          e.initial_cost, e.best_cost, e.best_quality, e.tt50_s);
    }
    std::printf(
        "},\"probe_profile\":{\"pairs\":%zu,\"equal\":%zu,\"unequal\":%zu,"
        "\"moved_cells\":%.3f,\"nets\":%.3f,\"pins\":%.3f,"
        "\"o1_share\":%.6f,\"rescan_share\":%.6f,\"overlay_ns\":%.1f,"
        "\"marking_ns\":%.1f,\"box_ns\":%.1f,\"delay_ns\":%.1f,"
        "\"owa_ns\":%.1f,\"equal_probe_ns\":%.1f,"
        "\"unequal_probe_ns\":%.1f",
        prof.pairs, prof.equal, prof.unequal, prof.moved_cells, prof.nets,
        prof.pins, prof.o1_share, prof.rescan_share, prof.overlay_ns,
        prof.marking_ns, prof.box_ns, prof.delay_ns, prof.owa_ns,
        prof.equal_probe_ns, prof.unequal_probe_ns);
    std::printf("},\"shared_scaling\":{");
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      const ScalingPoint& p = scaling[i];
      std::printf(
          "%s\"%zu\":{\"threads_used\":%zu,\"makespan_s\":%.6f,"
          "\"trials_per_s\":%.3f,\"speedup_vs_1\":%.4f}",
          i == 0 ? "" : ",", p.threads, p.threads_used, p.makespan_s,
          p.trials_per_s, p.speedup_vs_1);
    }
    std::printf(
        "},\"eco\":{\"cold_trials\":%llu,\"warm_trials\":%llu,"
        "\"trials_ratio\":%.6f,\"cold_best_cost\":%.9g,"
        "\"warm_initial_cost\":%.9g,\"warm_best_cost\":%.9g,"
        "\"warm_reached_target\":%s}}\n",
        static_cast<unsigned long long>(eco.cold_trials),
        static_cast<unsigned long long>(eco.warm_trials), eco.trials_ratio,
        eco.cold_best_cost, eco.warm_initial_cost, eco.warm_best_cost,
        eco.warm_reached_target ? "true" : "false");
  }
  return 0;
}
