// perfbench — the repository benchmark program.
//
// Runs one workload for a time budget, checks every result from outside the
// solver, and prints one JSON line as the last line of standard output:
//
//   perfbench --workload large-tabu --seed 3 --seconds 20 --trace 0
//   {"correct": true, "attempted": 61, "failed": 0, "metrics": {...}}
//
// Every workload runs the same phases on its own circuit and jobs:
//
//   setup   netlist, evaluator, daemon start and client hellos.
//   direct  Solver::solve of the workload's tabu job over a set of
//           sub-seeds derived from --seed, n solves at a time, each
//           stopping at its target cost or budget (t(1,x) in the paper's
//           terms).
//   shared  the same tabu job through "parallel-shared" at n threads:
//           t(n,x), and the speedup t(1,x) / t(n,x).
//   serve   a closed loop of n client connections against an in-process
//           Daemon over a Unix socket, one job outstanding per connection.
//           About half of the submissions repeat a job the same connection
//           already completed, so they are cache hits.
//
// n is min(4, nproc) - 1 (at least 1); see worker_count().
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced (the difference is the tracing overhead), times
// the calls into each layer on the workload's own inputs, reports each
// layer's self time, and writes every span to a JSON file.
//
// --quick shrinks every workload to seconds (small circuits, iteration
// budgets); --corrupt swaps two cells of one result before verification,
// which must show up as a failure.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/annealing.hpp"
#include "cost/evaluator.hpp"
#include "experiments/workloads.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/io.hpp"
#include "parallel/shared_engine.hpp"
#include "placement/layout.hpp"
#include "placement/placement.hpp"
#include "pvm/frame.hpp"
#include "service/client.hpp"
#include "service/codec.hpp"
#include "service/daemon.hpp"
#include "service/proto.hpp"
#include "service/session.hpp"
#include "solver/solver.hpp"
#include "support/log.hpp"
#include "support/parallel_for.hpp"
#include "support/rng.hpp"
#include "tabu/search.hpp"
#include "timing/paths.hpp"
#include "trace.hpp"

namespace {

using namespace pts;
using perfbench::Span;
using perfbench::Tracer;

/// Relative tolerance for recomputing best_cost from best_slots on a fresh
/// evaluator. The engines carry running HPWL/path totals across thousands
/// of incremental swaps; their drift stays far below this.
constexpr double kCostTolerance = 1e-9;

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// One solve recipe on the workload's circuit.
struct Job {
  std::string engine;          ///< "tabu" or "anneal"
  double target = 0.0;         ///< stop.target_cost; <= 0: budget only
  std::size_t cap = 0;         ///< iteration cap (safety net or budget)
  std::size_t moves_per_temp = 0;  ///< anneal schedule (0 = engine default)
  double cooling = 0.92;
};

struct Workload {
  std::string name;
  std::string circuit;
  Job tabu;    ///< tabu job: direct, shared, tabu.* counts
  Job anneal;  ///< annealing job (traced run only): baselines.* counts
  Job served;  ///< the job the serve phase submits
  std::size_t serve_jobs_per_connection = 40;  ///< per serve repeat
};

// Targets were sized on a 4-core x86 box so every sub-seed reaches them well
// inside the cap: scale50k tabu reaches 0.69 in ~210-255 iterations
// (~1.5 s).
std::vector<Workload> full_workloads() {
  return {
      {"large-tabu", "scale50k",
       {"tabu", 0.69, 600, 0, 0.92},
       {"anneal", 0.65, 300000, 5000, 0.85},
       {"tabu", 0.0, 1, 0, 0.92},
       40},
      {"serve-small", "c532",
       {"tabu", 0.0, 30, 0, 0.92},
       {"anneal", 0.50, 400000, 0, 0.92},
       {"tabu", 0.0, 30, 0, 0.92},
       400},
  };
}

/// The same workloads at seconds-long sizes (the quick tier).
std::vector<Workload> quick_workloads() {
  return {
      {"large-tabu", "c1355",
       {"tabu", 0.0, 20, 0, 0.92},
       {"anneal", 0.0, 20000, 0, 0.92},
       {"tabu", 0.0, 2, 0, 0.92},
       6},
      {"serve-small", "highway",
       {"tabu", 0.0, 10, 0, 0.92},
       {"anneal", 0.0, 5000, 0, 0.92},
       {"tabu", 0.0, 10, 0, 0.92},
       10},
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool corrupt = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(a ^ (b * 0x9e37'79b9'7f4a'7c15ULL));
  return sm.next();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// min(4, nproc): the most threads and connections any phase uses.
std::size_t core_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n == 0 ? 1 : n, 1, 4);
}

/// Threads and connections of the shared and serve phases: one core fewer
/// than core_count(). On a shared VM a vCPU can stall for seconds; with a
/// spare vCPU the scheduler moves work off it, while a phase that needs
/// every vCPU at once slows down several fold.
std::size_t worker_count() { return std::max<std::size_t>(1, core_count() - 1); }

/// What must match bit for bit between two runs of one job.
std::uint64_t fingerprint(const solver::SolveResult& r) {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;
  auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100'0000'01b3ULL;
    }
  };
  for (const auto c : r.best_slots) add(c);
  std::uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &r.best_cost, sizeof cost_bits);
  add(cost_bits);
  add(r.iterations);
  add(r.stats.trials);
  add(r.stats.accepted);
  add(static_cast<std::uint64_t>(r.stop_reason));
  return h;
}

/// Counts attempted operations and failed ones; failures are explained on
/// standard error. Safe to call from several threads.
struct Ledger {
  std::mutex mutex;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex);
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------------------
// Specs and checks
// ---------------------------------------------------------------------------

solver::SolveSpec make_spec(const netlist::Netlist& nl, const Job& job,
                            std::uint64_t seed) {
  auto spec = experiments::base_spec(nl, job.engine, seed, /*quick=*/true);
  spec.tabu.iterations = job.cap;
  spec.tabu.trace_stride = 0;
  spec.anneal.moves_per_temp = job.moves_per_temp;
  spec.anneal.cooling = job.cooling;
  spec.anneal.trace_stride = 0;
  spec.stop.max_iterations = job.cap;
  if (job.target > 0.0) spec.stop.target_cost = job.target;
  return spec;
}

bool reached_stop(const Job& job, StopReason reason) {
  if (job.target > 0.0) return reason == StopReason::TargetCost;
  return reason == StopReason::IterationBudget ||
         reason == StopReason::Completed;
}

bool is_permutation_of_movable(const netlist::Netlist& nl,
                               const std::vector<netlist::CellId>& slots) {
  if (slots.size() != nl.num_movable()) return false;
  std::vector<char> seen(nl.num_cells(), 0);
  for (const auto c : slots) {
    if (c >= nl.num_cells() || !nl.cell(c).movable() || seen[c]) return false;
    seen[c] = 1;
  }
  return true;
}

/// Recomputes best_cost from best_slots on a fresh evaluator.
bool cost_reproduces(const solver::SolveSpec& spec,
                     const solver::SolveResult& r) {
  if (!is_permutation_of_movable(*spec.netlist, r.best_slots)) return false;
  solver::SolveSpec fresh = spec;
  fresh.initial_slots.clear();
  auto setup = solver::detail::make_sequential_setup(fresh);
  setup.eval->reset_placement(r.best_slots);
  const double cost = setup.eval->cost();
  return std::fabs(cost - r.best_cost) <=
         kCostTolerance * std::max(1.0, std::fabs(cost));
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// Results kept whole for verification (recomputing cost is a fresh set-up).
constexpr std::size_t kKept = 8;

/// Repeated solves of one job. Solve i uses sub-seed i, so every solve of
/// a run is a distinct input drawn from --seed. Several threads may solve
/// from one series at once; everything below `mutex` is guarded by it.
struct Series {
  Series(const Job& j, std::string e, const char* p)
      : job(&j), engine(std::move(e)), phase(p) {}

  struct Kept {
    solver::SolveSpec spec;
    solver::SolveResult result;
  };

  const Job* job;
  std::string engine;
  const char* phase;
  std::mutex mutex;
  std::size_t next = 0;                     ///< next sub-seed to solve
  std::vector<double> wall_s;               ///< one per timed solve
  std::map<std::size_t, std::uint64_t> fp;  ///< sub-seed -> fingerprint
  double evals = 0.0;                       ///< candidate evaluations
  double engine_s = 0.0;                    ///< engine seconds
  std::map<std::size_t, Kept> kept;         ///< sub-seeds below kKept
};

/// Sub-seed of the untimed warm-up solves, outside the timed range.
constexpr std::size_t kWarmUp = 0xffff'ffff;

class WorkloadRun {
 public:
  WorkloadRun(const Workload& w, const Options& o, Ledger& ledger)
      : w_(w), o_(o), ledger_(ledger), nl_(experiments::circuit(w.circuit)),
        cores_(core_count()), threads_(worker_count()) {}

  Metrics run() {
    Series direct(w_.tabu, "tabu", "direct");
    Series shared(w_.tabu, "parallel-shared", "shared");
    plan_serve();

    // The phases are interleaved in five or more rounds, so a slow spell
    // of the machine lands on every metric alike rather than on whichever
    // phase happened to run through it.
    // Untimed warm-up: the first solve of a run pays for the thread pool
    // and for memory the allocator has not handed out yet.
    solve_one(direct, kWarmUp, false);
    solve_one(shared, kWarmUp, false);
    const double round_s = o_.seconds / 5.0;
    const double t_end = now_s() + o_.seconds;
    auto minimums_met = [&] {
      return setup_s_.size() >= 10 && direct.wall_s.size() >= 3 &&
             shared.wall_s.size() >= 3 && serve_repeats_ >= 2;
    };
    // Sequential solves run on n threads at once, each its own sub-seed, so
    // the sample spans every vCPU the phase ran on. On a shared VM a single
    // thread solving back to back reported the slow spells of whichever
    // vCPU it sat on: its median spread several times wider between runs.
    // Solve times are reported as means: with vCPUs of two speeds the
    // sample is bimodal, and its median jumps between the modes from run
    // to run while the mean moves with the share of slow solves.
    while (now_s() < t_end || !minimums_met()) {
      for (int i = 0; i < 4; ++i) setup_step();
      run_slice(direct, 0.40 * round_s, threads_);
      run_slice(shared, 0.20 * round_s, 1);
      const double serve_end = now_s() + 0.30 * round_s;
      do {
        serve_repeat();
      } while (now_s() < serve_end);
    }

    // Verification, outside the timed rounds.
    if (o_.corrupt && !direct.kept.empty()) {
      auto& slots = direct.kept.begin()->second.result.best_slots;
      if (slots.size() >= 2) std::swap(slots.front(), slots.back());
    }
    for (const auto& [i, fp] : shared.fp) {
      const auto seq = direct.fp.find(i);
      if (seq == direct.fp.end()) continue;
      ledger_.check(fp == seq->second,
                    "parallel-shared matches tabu bit for bit (sub-seed " +
                        std::to_string(i) + ")");
    }
    repeat_check(direct);
    verify(direct);
    held_out_check();
    if (!direct.kept.empty()) tabu_first_ = direct.kept.begin()->second.result;

    if (threads_ < 2) {
      std::fprintf(stderr,
                   "perfbench: shared_speedup unresolved: one worker thread\n");
    }
    std::fprintf(stderr,
                 "perfbench: %s: %zu set-ups, %zu direct and %zu shared "
                 "solves, %zu misses and %zu hits over %zu serve repeats\n",
                 w_.name.c_str(), setup_s_.size(), direct.wall_s.size(),
                 shared.wall_s.size(), serve_.misses, serve_.hits,
                 serve_repeats_);
    return {
        {"setup_s", median(setup_s_), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"solve_mean_s", mean(direct.wall_s), "s"},
        {"evals_per_s", direct.evals / std::max(direct.engine_s, 1e-12),
         "1/s"},
        {"shared_solve_mean_s", mean(shared.wall_s), "s"},
        // t(1,x) / t(n,x) of the tabu job.
        {"shared_speedup",
         mean(direct.wall_s) / std::max(mean(shared.wall_s), 1e-12),
         "ratio"},
        {"serve_jobs_per_s", median(serve_.jobs_per_s), "1/s"},
        {"miss_p50_ms", median(serve_.miss_p50), "ms"},
        {"hit_p50_ms", median(serve_.hit_p50), "ms"},
    };
  }

  /// Per-layer timings on this workload's inputs (traced run only).
  Metrics layers();

 private:
  std::uint64_t sub_seed(std::size_t i) const {
    return mix(o_.seed, 0x5eed0000 + i) % 1'000'000'007ULL;
  }

  solver::SolveSpec spec_for(const Job& job, const std::string& engine,
                             std::size_t i) const {
    auto spec = make_spec(nl_, job, sub_seed(i));
    spec.engine = engine;
    spec.shared.threads = threads_;
    return spec;
  }

  std::string socket_path(std::size_t index) const {
    return o_.out_dir + "/ptsd-" + std::to_string(getpid()) + "-" +
           std::to_string(index) + ".sock";
  }

  service::DaemonConfig daemon_config(std::size_t cache_entries) {
    service::DaemonConfig config;
    config.unix_path = socket_path(daemons_++);
    config.max_sessions = threads_;
    config.max_queued = threads_;
    config.cache_entries = cache_entries;
    return config;
  }

  /// One set-up as a user pays it before the first job: netlist build,
  /// layout, paths and evaluator, then daemon start plus connect and hello
  /// per client.
  void setup_step() {
    Span span("perfbench.setup");
    const double t0 = now_s();
    std::unique_ptr<netlist::Netlist> nl;
    {
      Span s("netlist.make_benchmark");
      nl = std::make_unique<netlist::Netlist>(
          netlist::make_benchmark(w_.circuit));
    }
    auto spec = make_spec(*nl, w_.tabu, sub_seed(0));
    {
      Span s("solver.make_sequential_setup");
      auto setup = solver::detail::make_sequential_setup(spec);
    }
    service::Daemon daemon(daemon_config(0));
    std::string error;
    bool ok = false;
    {
      Span s("service.daemon.start");
      ok = daemon.start(&error);
    }
    std::vector<service::Client> clients(threads_);
    for (auto& client : clients) {
      Span s("service.client.connect_hello");
      ok = ok && client.connect_unix(daemon.unix_path(), &error) &&
           client.hello(&error).has_value();
    }
    setup_s_.push_back(now_s() - t0);
    ledger_.check(ok, "setup: daemon start, connect and hello: " + error);
  }

  solver::SolveResult solve_one(Series& s, std::size_t i, bool timed) {
    const auto spec = spec_for(*s.job, s.engine, i);
    solver::SolveResult r;
    const double t0 = now_s();
    {
      Span span("solver.solve", i + 1);
      r = solver::Solver().solve(spec);
    }
    const double wall_s = now_s() - t0;
    if (timed) {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.wall_s.push_back(wall_s);
      s.evals += static_cast<double>(r.stats.trials);
      s.engine_s += r.makespan;
      s.fp[i] = fingerprint(r);
      if (i < kKept) s.kept[i] = {spec, r};
    }
    ledger_.check(reached_stop(*s.job, r.stop_reason),
                  std::string(s.phase) + " " + s.engine + " sub-seed " +
                      std::to_string(i) + " reached its stop (got " +
                      stop_reason_name(r.stop_reason) + ")");
    return r;
  }

  /// Solves the next sub-seeds on `threads` threads at once until `seconds`
  /// pass; each thread finishes the solve it is in (at least one each).
  void run_slice(Series& s, double seconds, std::size_t threads) {
    const double t_end = now_s() + seconds;
    auto loop = [&] {
      do {
        std::size_t i = 0;
        {
          std::lock_guard<std::mutex> lock(s.mutex);
          i = s.next++;
        }
        solve_one(s, i, true);
      } while (now_s() < t_end);
    };
    std::vector<std::thread> workers;
    for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(loop);
    loop();
    for (auto& t : workers) t.join();
  }

  /// Count self-check: sub-seed 0 solved again must repeat its iterations,
  /// trials, accepts and result exactly.
  void repeat_check(Series& s) {
    const auto again = solve_one(s, 0, false);
    const auto& first = s.kept.at(0).result;
    ledger_.check(again.iterations == first.iterations &&
                      again.stats.trials == first.stats.trials &&
                      again.stats.accepted == first.stats.accepted &&
                      fingerprint(again) == s.fp.at(0),
                  std::string(s.phase) + " " + s.engine +
                      " sub-seed 0 repeats its counts exactly");
  }

  void verify(const Series& s) {
    for (const auto& [i, kept] : s.kept) {
      Span span("perfbench.verify");
      ledger_.check(cost_reproduces(kept.spec, kept.result),
                    std::string(s.phase) + " " + s.engine + " sub-seed " +
                        std::to_string(i) +
                        ": best_cost recomputed from best_slots");
    }
  }

  /// The targets must also hold on a seed the workload was not tuned on.
  void held_out_check() {
    const Job& job = w_.tabu;
    auto spec = make_spec(nl_, job, mix(o_.seed, 0x401d) % 1'000'000'007ULL);
    const auto r = solver::Solver().solve(spec);
    ledger_.check(reached_stop(job, r.stop_reason), "held-out seed reaches the target");
  }

  struct Planned {
    std::uint64_t seed = 0;
    int repeat_of = -1;  ///< index of an earlier fresh job, -1 = fresh
  };

  /// Connection c's seeded stream: half the submissions (rounded down)
  /// repeat a job this connection already completed. The seed picks which
  /// positions repeat and what they repeat, not how many, so the hit share
  /// and with it the loop's throughput do not depend on the seed.
  std::vector<Planned> stream(std::size_t c) const {
    Rng rng(mix(o_.seed, 0xc0ffee00 + c));
    const std::size_t n = w_.serve_jobs_per_connection;
    std::vector<char> repeat(n, 0);  // position 0 is always fresh
    for (std::size_t j = 1; j <= n / 2 && j < n; ++j) repeat[j] = 1;
    for (std::size_t j = n - 1; j > 1; --j) {
      std::swap(repeat[j], repeat[1 + rng() % j]);
    }
    std::vector<Planned> plan;
    std::vector<int> fresh;
    for (std::size_t j = 0; j < n; ++j) {
      Planned p;
      if (repeat[j]) {
        p.repeat_of = fresh[rng() % fresh.size()];
        p.seed = plan[p.repeat_of].seed;
      } else {
        p.seed = mix(o_.seed, (c << 32) | j) % 1'000'000'007ULL;
        fresh.push_back(static_cast<int>(j));
      }
      plan.push_back(p);
    }
    return plan;
  }

  struct ConnectionLog {
    std::vector<double> miss_ms, hit_ms, ack_ms, ack_to_hit_ms, ack_to_miss_ms;
    std::vector<std::uint64_t> fp;  ///< fingerprint per stream position
    std::optional<solver::SolveResult> sample;  ///< first (fresh) job's result
    std::vector<std::string> errors;
    std::uint64_t jobs = 0;
  };

  void plan_serve() {
    for (std::size_t c = 0; c < threads_; ++c) {
      plans_.push_back(stream(c));
      for (const auto& p : plans_.back()) planned_hits_ += p.repeat_of >= 0;
    }
  }

  /// One pass of every connection's stream against a fresh daemon (so the
  /// cache starts empty and the hit count must repeat exactly).
  void serve_repeat() {
    const std::size_t r = serve_repeats_++;
    service::Daemon daemon(
        daemon_config(threads_ * w_.serve_jobs_per_connection + 1));
    std::string error;
    if (!ledger_.check(daemon.start(&error), "daemon start: " + error)) return;
    std::vector<service::Client> clients(threads_);
    bool connected = true;
    for (auto& client : clients) {
      connected = connected &&
                  client.connect_unix(daemon.unix_path(), &error) &&
                  client.hello(&error).has_value();
    }
    if (!ledger_.check(connected, "serve connect: " + error)) return;

    std::vector<ConnectionLog> logs(threads_);
    std::vector<std::thread> workers;
    const double t0 = now_s();
    for (std::size_t c = 0; c < threads_; ++c) {
      workers.emplace_back(
          [&, c] { run_connection(clients[c], plans_[c], r, c, logs[c]); });
    }
    for (auto& t : workers) t.join();
    const double wall_s = now_s() - t0;
    for (auto& client : clients) client.close();
    cache_hits_ += daemon.cache_hits();
    cache_misses_ += daemon.cache_misses();
    ledger_.check(daemon.cache_hits() == planned_hits_,
                  "serve repeat " + std::to_string(r) + ": " +
                      std::to_string(daemon.cache_hits()) +
                      " cache hits, planned " + std::to_string(planned_hits_));
    daemon.stop();

    double repeat_jobs = 0.0;
    std::vector<double> repeat_miss_ms, repeat_hit_ms;
    for (std::size_t c = 0; c < threads_; ++c) {
      auto& log = logs[c];
      for (const auto& e : log.errors) ledger_.check(false, e);
      ledger_.check(log.jobs == plans_[c].size(),
                    "connection " + std::to_string(c) + " completed " +
                        std::to_string(log.jobs) + " jobs");
      repeat_jobs += static_cast<double>(log.jobs);
      append(repeat_miss_ms, log.miss_ms);
      append(repeat_hit_ms, log.hit_ms);
      append(ack_ms_, log.ack_ms);
      append(ack_to_hit_ms_, log.ack_to_hit_ms);
      append(ack_to_miss_ms_, log.ack_to_miss_ms);
    }
    serve_.misses += repeat_miss_ms.size();
    serve_.hits += repeat_hit_ms.size();
    serve_.jobs_per_s.push_back(repeat_jobs / std::max(wall_s, 1e-12));
    serve_.miss_p50.push_back(percentile(repeat_miss_ms, 0.50));
    serve_.hit_p50.push_back(percentile(repeat_hit_ms, 0.50));
    if (first_fp_.empty()) {
      for (auto& log : logs) first_fp_.push_back(log.fp);
      check_sampled_misses(logs);
    } else {
      for (std::size_t c = 0; c < threads_; ++c) {
        ledger_.check(logs[c].fp == first_fp_[c],
                      "serve repeat " + std::to_string(r) + " connection " +
                          std::to_string(c) +
                          " reproduces repeat 0 bit for bit");
      }
    }
  }

  static void append(std::vector<double>& to, const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  }

  service::JobRequest job_request(std::uint64_t seed) const {
    service::JobRequest job;
    job.circuit = w_.circuit;
    job.spec = make_spec(nl_, w_.served, seed);
    job.spec.netlist = nullptr;
    return job;
  }

  void run_connection(service::Client& client, const std::vector<Planned>& plan,
                      std::size_t repeat, std::size_t c, ConnectionLog& log) {
    log.fp.assign(plan.size(), 0);
    for (std::size_t j = 0; j < plan.size(); ++j) {
      const auto& p = plan[j];
      const std::uint64_t job_id = ((repeat + 1) << 40) | (c << 32) | (j + 1);
      Span job_span("perfbench.job", job_id);
      const auto job = job_request(p.seed);
      std::string error;
      bool cached = false;
      const double t0 = now_s();
      std::optional<std::uint64_t> id;
      {
        Span s("service.client.submit");
        id = client.submit(job, false, 0, &error, nullptr, job_id, &cached);
      }
      const double t1 = now_s();
      if (!id) {
        log.errors.push_back("submit: " + error);
        return;
      }
      std::optional<solver::SolveResult> result;
      {
        Span s("service.client.wait");
        result = client.wait(*id, nullptr, &error);
      }
      const double t2 = now_s();
      if (!result) {
        log.errors.push_back("wait: " + error);
        return;
      }
      ++log.jobs;
      const double total_ms = (t2 - t0) * 1e3;
      log.ack_ms.push_back((t1 - t0) * 1e3);
      (cached ? log.hit_ms : log.miss_ms).push_back(total_ms);
      (cached ? log.ack_to_hit_ms : log.ack_to_miss_ms)
          .push_back((t2 - t1) * 1e3);
      log.fp[j] = fingerprint(*result);
      const std::string where = "serve connection " + std::to_string(c) +
                                " job " + std::to_string(j);
      if (cached != (p.repeat_of >= 0)) {
        log.errors.push_back(where + ": cached=" + (cached ? "true" : "false") +
                             " but the stream planned the opposite");
      }
      if (p.repeat_of >= 0 && log.fp[j] != log.fp[p.repeat_of]) {
        log.errors.push_back(where +
                             ": cache hit differs from the miss that filled it");
      }
      if (!reached_stop(w_.served, result->stop_reason)) {
        log.errors.push_back(where + ": stopped by " +
                             stop_reason_name(result->stop_reason));
      }
      if (j == 0 && repeat == 0) log.sample = std::move(*result);
    }
  }

  /// Outside the timed window: each connection's first miss must equal a
  /// direct same-seed solve and reproduce its cost from its slots.
  void check_sampled_misses(const std::vector<ConnectionLog>& logs) {
    for (std::size_t c = 0; c < logs.size(); ++c) {
      if (!logs[c].sample) continue;
      Span span("perfbench.verify");
      const auto job = job_request(plans_[c][0].seed);
      std::string error;
      auto decoded = service::decode_spec(service::encode_spec(job), &error);
      if (!ledger_.check(decoded.has_value(), "decode served spec: " + error)) {
        continue;
      }
      decoded->spec.netlist = &nl_;
      const auto direct = solver::Solver().solve(decoded->spec);
      ledger_.check(fingerprint(direct) == fingerprint(*logs[c].sample),
                    "served miss equals the direct same-seed solve");
      ledger_.check(cost_reproduces(decoded->spec, *logs[c].sample),
                    "served miss: best_cost recomputed from best_slots");
    }
  }

  const Workload& w_;
  const Options& o_;
  Ledger& ledger_;
  const netlist::Netlist& nl_;
  const std::size_t cores_;
  const std::size_t threads_;
  std::size_t daemons_ = 0;  ///< daemons started, for unique socket paths

  std::vector<double> setup_s_;
  std::vector<std::vector<Planned>> plans_;
  std::size_t planned_hits_ = 0;
  std::vector<std::vector<std::uint64_t>> first_fp_;
  std::size_t serve_repeats_ = 0;
  /// One entry per serve repeat; the reported figure is the median over
  /// repeats, so a stalled repeat does not drag the run's figure with it.
  struct {
    std::vector<double> jobs_per_s, miss_p50, hit_p50;
    std::size_t misses = 0, hits = 0;
  } serve_;
  std::vector<double> ack_ms_, ack_to_hit_ms_, ack_to_miss_ms_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::optional<solver::SolveResult> tabu_first_;
};

// ---------------------------------------------------------------------------
// Per-layer timings
// ---------------------------------------------------------------------------

/// Calls fn() until `seconds` pass (at least `min_n` times) and returns the
/// mean seconds per call.
double mean_call_s(double seconds, std::size_t min_n,
                   const std::function<void()>& fn) {
  const double t0 = now_s();
  std::size_t n = 0;
  while (n < min_n || now_s() - t0 < seconds) {
    fn();
    ++n;
  }
  return (now_s() - t0) / static_cast<double>(n);
}

/// Median of per-call durations, calling fn() `n` times.
double median_call_s(std::size_t n, const std::function<void()>& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < n; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

Metrics WorkloadRun::layers() {
  Metrics m;
  const std::size_t reps = o_.quick ? 2 : 5;
  const auto tabu_spec0 = spec_for(w_.tabu, "tabu", 0);

  // Set-up decomposition: the recipe of detail::make_sequential_setup,
  // called layer by layer.
  {
    std::vector<double> build, layout, paths, evaluator;
    for (std::size_t r = 0; r < reps; ++r) {
      double t0 = now_s();
      std::unique_ptr<netlist::Netlist> nl;
      {
        Span s("netlist.make_benchmark");
        nl = std::make_unique<netlist::Netlist>(
            netlist::make_benchmark(w_.circuit));
      }
      build.push_back(now_s() - t0);
      t0 = now_s();
      std::unique_ptr<placement::Layout> lay;
      std::optional<placement::Placement> initial;
      {
        Span s("placement.layout_random");
        lay = std::make_unique<placement::Layout>(*nl);
        Rng rng(tabu_spec0.seed ^ solver::kInitStreamSalt);
        initial.emplace(placement::Placement::random(*nl, *lay, rng));
      }
      layout.push_back(now_s() - t0);
      t0 = now_s();
      std::shared_ptr<const timing::PathSet> path_set;
      {
        Span s("timing.extract_critical_paths");
        path_set = timing::extract_critical_paths(
            *nl, tabu_spec0.cost.num_paths, tabu_spec0.cost.delay_model);
      }
      paths.push_back(now_s() - t0);
      t0 = now_s();
      {
        Span s("cost.calibrate_and_construct");
        const auto goals = cost::Evaluator::calibrate_goals(
            *initial, *path_set, tabu_spec0.cost);
        cost::Evaluator eval(std::move(*initial), path_set, tabu_spec0.cost,
                             goals);
      }
      evaluator.push_back(now_s() - t0);
    }
    m.push_back({"netlist.build_ms", median(build) * 1e3, "ms"});
    m.push_back({"placement.layout_ms", median(layout) * 1e3, "ms"});
    m.push_back({"timing.paths_ms", median(paths) * 1e3, "ms"});
    m.push_back({"cost.evaluator_ms", median(evaluator) * 1e3, "ms"});
  }

  // Cost kernels on sampled movable pairs, split by cell width.
  {
    auto setup = solver::detail::make_sequential_setup(tabu_spec0);
    cost::Evaluator& eval = *setup.eval;
    const auto& movable = nl_.movable_cells();
    const auto& topo = nl_.topology();
    Rng rng(mix(o_.seed, 0x9a125));
    const std::size_t pairs = o_.quick ? 256 : 2048;
    std::vector<cost::Move> all, equal, unequal;
    while (all.size() < pairs) {
      const auto a = movable[rng() % movable.size()];
      const auto b = movable[rng() % movable.size()];
      if (a == b) continue;
      all.push_back({a, b});
      (topo.cell_width(a) == topo.cell_width(b) ? equal : unequal)
          .push_back({a, b});
    }
    constexpr std::size_t kWidth = 8;
    std::vector<double> costs(kWidth);
    auto batch_ns = [&](const std::vector<cost::Move>& moves,
                        const char* name) {
      if (moves.size() < kWidth) return 0.0;
      Span s(name);
      const std::size_t chunks = moves.size() / kWidth;
      std::size_t i = 0;
      const double per_chunk = mean_call_s(0.15, chunks, [&] {
        eval.probe_batch(
            std::span<const cost::Move>(moves.data() + (i % chunks) * kWidth,
                                        kWidth),
            costs);
        ++i;
      });
      return per_chunk / kWidth * 1e9;
    };
    batch_ns(all, "cost.probe_batch");  // warm-up: materializes the shadow
    m.push_back({"cost.probe_batch_ns", batch_ns(all, "cost.probe_batch"),
                 "ns"});
    m.push_back({"cost.probe_equal_ns", batch_ns(equal, "cost.probe_batch"),
                 "ns"});
    m.push_back({"cost.probe_unequal_ns",
                 batch_ns(unequal, "cost.probe_batch"), "ns"});
    m.push_back({"cost.unequal_share",
                 static_cast<double>(unequal.size()) /
                     static_cast<double>(all.size()),
                 "ratio"});

    // Fan-out of one probe: cells whose position a swap moves, and the
    // nets and pins those cells touch.
    {
      Span s("cost.apply_swap");
      const std::size_t n = std::min<std::size_t>(all.size(), 256);
      const auto px = eval.placement().positions_x();
      const auto py = eval.placement().positions_y();
      const std::vector<double> x0(px.begin(), px.end());
      const std::vector<double> y0(py.begin(), py.end());
      std::vector<std::uint32_t> net_mark(topo.num_nets(), 0);
      double moved = 0.0, nets = 0.0, pins = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        eval.apply_swap(all[i].a, all[i].b);
        const auto qx = eval.placement().positions_x();
        const auto qy = eval.placement().positions_y();
        for (std::size_t c = 0; c < x0.size(); ++c) {
          if (qx[c] == x0[c] && qy[c] == y0[c]) continue;
          moved += 1.0;
          for (const auto net : topo.nets_of(static_cast<netlist::CellId>(c))) {
            if (net_mark[net] == i + 1) continue;
            net_mark[net] = static_cast<std::uint32_t>(i + 1);
            nets += 1.0;
            pins += static_cast<double>(topo.pins(net).size());
          }
        }
        eval.apply_swap(all[i].a, all[i].b);
      }
      m.push_back({"cost.moved_cells_per_probe", moved / n, "count"});
      m.push_back({"cost.nets_per_probe", nets / n, "count"});
      m.push_back({"cost.pins_per_probe", pins / n, "count"});
    }
    {
      Span s("cost.commit_swap");
      std::size_t i = 0;
      const double per_pair = mean_call_s(0.15, 64, [&] {
        const auto& mv = all[i++ % all.size()];
        eval.commit_swap(mv.a, mv.b);
        eval.commit_swap(mv.a, mv.b);  // a swap is its own undo
      });
      m.push_back({"cost.commit_swap_ns", per_pair / 2 * 1e9, "ns"});
    }
    {
      Span s("cost.probe_swap");
      std::size_t i = 0;
      const double per = mean_call_s(0.15, 64, [&] {
        const auto& mv = all[i++ % all.size()];
        eval.probe_swap(mv.a, mv.b);
      });
      m.push_back({"cost.probe_swap_ns", per * 1e9, "ns"});
    }
    {
      Span s("cost.commit_probe");
      std::vector<double> t;
      for (std::size_t i = 0; i < std::min<std::size_t>(all.size(), 512); ++i) {
        eval.probe_swap(all[i].a, all[i].b);
        const double t0 = now_s();
        eval.commit_probe();
        t.push_back(now_s() - t0);
        eval.apply_swap(all[i].a, all[i].b);
      }
      m.push_back({"cost.commit_probe_ns", median(t) * 1e9, "ns"});
    }
  }

  // Search counts. The tabu job is also rerun through the tabu layer
  // directly, which must match the Solver front door bit for bit.
  {
    const auto& r = *tabu_first_;
    m.push_back({"tabu.iterations_to_target",
                 static_cast<double>(r.iterations), "count"});
    m.push_back({"tabu.trials_per_iteration",
                 static_cast<double>(r.stats.trials) /
                     std::max<double>(1.0, static_cast<double>(r.iterations)),
                 "count"});
    m.push_back({"tabu.accept_ratio",
                 static_cast<double>(r.stats.accepted) /
                     std::max<double>(1.0, static_cast<double>(r.stats.trials)),
                 "ratio"});
    std::optional<solver::detail::SequentialSetup> setup;
    {
      Span s("solver.make_sequential_setup");
      setup.emplace(solver::detail::make_sequential_setup(tabu_spec0));
    }
    tabu::TabuSearch search(*setup->eval, tabu_spec0.tabu,
                            Rng(tabu_spec0.seed ^ solver::kSearchStreamSalt));
    tabu::SearchResult direct;
    {
      Span s("tabu.run");
      direct = search.run(RunControl{tabu_spec0.stop, nullptr});
    }
    ledger_.check(direct.best_slots == r.best_slots &&
                      direct.best_cost == r.best_cost &&
                      direct.stats.iterations == r.iterations,
                  "TabuSearch::run matches Solver::solve bit for bit");
  }
  {
    const auto anneal_spec = spec_for(w_.anneal, "anneal", 0);
    auto setup = solver::detail::make_sequential_setup(anneal_spec);
    Rng rng(anneal_spec.seed ^ solver::kSearchStreamSalt);
    baselines::AnnealResult r;
    {
      Span s("baselines.anneal");
      r = baselines::anneal(*setup.eval, anneal_spec.anneal, rng,
                            RunControl{anneal_spec.stop, nullptr});
    }
    ledger_.check(reached_stop(w_.anneal, r.stop_reason),
                  "baselines::anneal reaches its stop");
    solver::SolveResult front_door;
    {
      Span s("solver.solve");
      front_door = solver::Solver().solve(anneal_spec);
    }
    ledger_.check(r.best_slots == front_door.best_slots &&
                      r.moves_tried == front_door.iterations,
                  "baselines::anneal matches Solver::solve bit for bit");
    m.push_back({"baselines.moves_to_target",
                 static_cast<double>(r.moves_tried), "count"});
    m.push_back({"baselines.accept_ratio",
                 static_cast<double>(r.moves_accepted) /
                     std::max<double>(1.0, static_cast<double>(r.moves_tried)),
                 "ratio"});
  }

  // Shared-memory strong scaling of the tabu job: the trajectory does not
  // depend on the thread count, so evaluations/s is pure parallel
  // efficiency.
  {
    double t1 = 0.0, tn = 0.0;
    std::size_t iterations = 0;
    // T1..T4 are always reported; on a box with fewer cores the higher
    // counts are measured at min(T, nproc) threads. Efficiency is taken at
    // the shared phase's thread count.
    for (std::size_t t = 1; t <= 4; ++t) {
      parallel::SharedConfig config;
      config.params.threads = std::min(t, cores_);
      config.tabu = tabu_spec0.tabu;
      config.cost = tabu_spec0.cost;
      config.init_seed = tabu_spec0.seed ^ solver::kInitStreamSalt;
      config.search_seed = tabu_spec0.seed ^ solver::kSearchStreamSalt;
      parallel::SharedEngine engine(nl_, config);
      parallel::SharedResult r;
      {
        Span s("parallel.shared_run");
        r = engine.run(RunControl{tabu_spec0.stop, nullptr});
      }
      const double eps = static_cast<double>(r.search.stats.trials) /
                         std::max(r.makespan, 1e-12);
      m.push_back({"parallel.shared_evals_per_s.T" + std::to_string(t), eps,
                   "1/s"});
      if (t == 1) {
        t1 = eps;
        iterations = r.search.stats.iterations;
      }
      if (t == threads_) tn = eps;
      ledger_.check(r.search.stats.iterations == iterations,
                    "parallel-shared trajectory independent of thread count");
    }
    m.push_back({"parallel.efficiency",
                 tn / std::max(t1, 1e-12) / static_cast<double>(threads_),
                 "ratio"});
  }
  {
    ThreadPool pool(threads_);
    Span s("support.pool_run");
    const double per = mean_call_s(0.1, 100, [&] { pool.run([](std::size_t) {}); });
    m.push_back({"support.pool_run_us", per * 1e6, "us"});
  }

  // Solver front door on the served job.
  auto served = make_spec(nl_, w_.served, sub_seed(0));
  double direct_solve_s = 0.0;
  solver::SolveResult served_result;
  {
    m.push_back({"solver.setup_ms", median_call_s(reps * 4, [&] {
                   Span s("solver.make_sequential_setup");
                   auto setup = solver::detail::make_sequential_setup(served);
                 }) * 1e3,
                 "ms"});
    bool valid = true;
    {
      Span s("solver.validate");
      m.push_back({"solver.validate_us", mean_call_s(0.05, 10, [&] {
                     valid = valid && solver::Solver().validate(served).empty();
                   }) * 1e6,
                   "us"});
    }
    ledger_.check(valid, "served spec validates");
    direct_solve_s = median_call_s(reps * 4, [&] {
      Span s("solver.solve");
      served_result = solver::Solver().solve(served);
    });
    m.push_back({"solver.direct_solve_ms", direct_solve_s * 1e3, "ms"});
  }

  // Codec and protocol on the served job and its result.
  {
    const auto job = job_request(sub_seed(0));
    const std::uint64_t circuit_hash = netlist::content_hash(nl_);
    std::string spec_text, result_text, error;
    bool decoded = true, round_trip = true;
    auto codec_us = [&](const char* name, const std::function<void()>& fn) {
      Span s(name);
      return mean_call_s(0.05, 5, fn) * 1e6;
    };
    m.push_back({"service.codec.encode_spec_us",
                 codec_us("service.codec.encode_spec",
                          [&] { spec_text = service::encode_spec(job); }),
                 "us"});
    m.push_back({"service.codec.decode_spec_us",
                 codec_us("service.codec.decode_spec",
                          [&] {
                            decoded = decoded &&
                                      service::decode_spec(spec_text, &error)
                                          .has_value();
                          }),
                 "us"});
    m.push_back({"service.codec.encode_result_us",
                 codec_us("service.codec.encode_result",
                          [&] {
                            result_text = service::encode_result(served_result);
                          }),
                 "us"});
    m.push_back({"service.codec.decode_result_us",
                 codec_us("service.codec.decode_result",
                          [&] {
                            const auto back =
                                service::decode_result(result_text, &error);
                            decoded = decoded && back &&
                                      fingerprint(*back) ==
                                          fingerprint(served_result);
                          }),
                 "us"});
    m.push_back({"service.codec.cache_key_us",
                 codec_us("service.codec.cache_key",
                          [&] { service::cache_key(job, circuit_hash); }),
                 "us"});
    m.push_back({"service.codec.result_bytes",
                 static_cast<double>(result_text.size()), "bytes"});

    const double roundtrip = mean_call_s(0.05, 5, [&] {
      pvm::Message msg;
      {
        Span s("service.proto.encode");
        msg = service::encode(service::DoneMsg{7, result_text});
      }
      std::vector<std::uint8_t> bytes;
      std::optional<pvm::Message> back;
      {
        Span s("pvm.frame_roundtrip");
        bytes = pvm::encode_frame(msg);
        pvm::FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        back = decoder.next();
      }
      service::DoneMsg done;
      {
        Span s("service.proto.decode");
        round_trip = round_trip && back && service::decode(*back, done) &&
                     done.result_json == result_text;
      }
    });
    m.push_back({"service.proto.done_roundtrip_us", roundtrip * 1e6, "us"});
    ledger_.check(decoded, "spec and result round-trip the codec: " + error);
    ledger_.check(round_trip, "DoneMsg round-trips framing and protocol");
  }

  // Session layer driven directly: start -> Done sink, and a cache lookup.
  {
    service::SessionManager::Options options;
    options.max_sessions = 1;
    options.cache_entries = 4;
    service::SessionManager sessions(options);
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    auto sink = [&](service::SessionEvent&& event) {
      if (event.kind != service::SessionEvent::Kind::Done) return;
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
      cv.notify_all();
    };
    const std::string key = service::cache_key(job_request(sub_seed(0)),
                                               netlist::content_hash(nl_));
    bool started = true;
    const double session_s = median_call_s(reps * 4, [&] {
      Span s("service.session.start_to_done");
      {
        std::lock_guard<std::mutex> lock(mutex);
        done = false;
      }
      if (!sessions.start(served, 1, false, 0, sink, 0.0, key).accepted()) {
        started = false;
        return;
      }
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return done; });
    });
    ledger_.check(started, "sessions start");
    m.push_back({"service.session.overhead_ms",
                 (session_s - direct_solve_s) * 1e3, "ms"});
    bool cached = true;
    double lookup = 0.0;
    {
      Span s("service.session.cached_result");
      lookup = mean_call_s(0.05, 5, [&] {
        cached = cached && sessions.cached_result(key).has_value();
      });
    }
    ledger_.check(cached, "session cache holds the finished job");
    m.push_back({"service.session.cached_result_us", lookup * 1e6, "us"});
  }

  // Client and daemon, from the traced serve phase.
  m.push_back({"service.client.submit_ack_ms", median(ack_ms_), "ms"});
  m.push_back({"service.client.ack_to_done_hit_ms", median(ack_to_hit_ms_),
               "ms"});
  m.push_back({"service.client.ack_to_done_miss_ms", median(ack_to_miss_ms_),
               "ms"});
  m.push_back({"service.daemon.cache_hit_ratio",
               static_cast<double>(cache_hits_) /
                   std::max<double>(1.0, static_cast<double>(cache_hits_ +
                                                             cache_misses_)),
               "ratio"});
  return m;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

void print_result(Ledger& ledger, const Metrics& metrics) {
  for (const auto& metric : metrics) {
    ledger.check(std::isfinite(metric.value), metric.name + " is finite");
  }
  std::string out = "{\"correct\": ";
  out += ledger.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--quick] [--corrupt] [--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else if ((v = value()) == nullptr) {
      return usage(argv[0]);
    } else if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--out-dir") {
      o.out_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  const auto table = o.quick ? quick_workloads() : full_workloads();
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const Workload& w) { return w.name == o.workload; });
  if (it == table.end() || !(o.seconds > 0.0)) return usage(argv[0]);

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  // The daemon logs one line per request at Info; keep stderr to warnings
  // so thousands of jobs do not turn into terminal or pipe I/O.
  set_log_level(LogLevel::Warn);
  Ledger ledger;
  if (!o.trace) {
    WorkloadRun run(*it, o, ledger);
    print_result(ledger, run.run());
    return 0;
  }

  // Traced run: the same workload untraced, then traced, each for half the
  // budget; the difference on each end-to-end metric is the tracing
  // overhead. Per-layer timings and self times come from the traced pass.
  Options half = o;
  half.seconds = o.seconds / 2.0;
  Metrics untraced;
  {
    WorkloadRun run(*it, half, ledger);
    untraced = run.run();
  }
  Tracer::instance().set_enabled(true);
  WorkloadRun run(*it, half, ledger);
  const Metrics traced = run.run();
  Metrics out = run.layers();
  Tracer::instance().set_enabled(false);

  const auto self = Tracer::instance().layer_self_ms();
  for (const char* layer : {"netlist", "placement", "timing", "cost", "tabu",
                            "baselines", "parallel", "support", "solver",
                            "service", "pvm"}) {
    const auto s = self.find(layer);
    out.push_back({std::string(layer) + ".self_ms",
                   s == self.end() ? 0.0 : s->second, "ms"});
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    out.push_back({"trace_overhead." + traced[i].name,
                   traced[i].value - untraced[i].value, traced[i].unit});
  }
  const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  ledger.check(Tracer::instance().write_json(path), "write spans to " + path);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
               Tracer::instance().spans().size(), path.c_str());
  print_result(ledger, out);
  return 0;
}
