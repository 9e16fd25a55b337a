// Micro-benchmarks (google-benchmark) for the search inner loop: swap
// evaluation, compound construction, HPWL/STA rebuilds, message codec, the
// served-result JSON codec, and one simulated local iteration. Not a paper
// figure — engineering data for the ablation discussion in DESIGN.md.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "cost/evaluator.hpp"
#include "experiments/workloads.hpp"
#include "parallel/protocol.hpp"
#include "parallel/worker_logic.hpp"
#include "service/codec.hpp"
#include "tabu/compound.hpp"
#include "timing/sta.hpp"

namespace {

using namespace pts;

std::unique_ptr<cost::Evaluator> make_eval(const netlist::Netlist& nl,
                                           const placement::Layout& layout,
                                           std::uint64_t seed) {
  cost::CostParams params;
  Rng rng(seed);
  auto p = placement::Placement::random(nl, layout, rng);
  auto paths =
      timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
  const auto goals = cost::Evaluator::calibrate_goals(p, *paths, params);
  return std::make_unique<cost::Evaluator>(std::move(p), std::move(paths), params,
                                           goals);
}

const netlist::Netlist& circuit_for(int index) {
  static const char* names[] = {"highway", "c532", "c1355", "c3540"};
  return experiments::circuit(names[index]);
}

template <typename SwapFn>
void run_swap_bench(benchmark::State& state, SwapFn&& swap) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  static std::map<const netlist::Netlist*, std::unique_ptr<placement::Layout>>
      layouts;
  auto& layout = layouts[&nl];
  if (!layout) layout = std::make_unique<placement::Layout>(nl);
  auto eval = make_eval(nl, *layout, 1);
  Rng rng(2);
  const auto& movable = nl.movable_cells();
  for (auto _ : state) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    benchmark::DoNotOptimize(swap(*eval, movable[ia], movable[ib]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(nl.name());
}

void BM_ApplySwap(benchmark::State& state) {
  run_swap_bench(state, [](cost::Evaluator& e, netlist::CellId a,
                           netlist::CellId b) { return e.apply_swap(a, b); });
}
BENCHMARK(BM_ApplySwap)->DenseRange(0, 3);

void BM_ProbeSwap(benchmark::State& state) {
  run_swap_bench(state, [](cost::Evaluator& e, netlist::CellId a,
                           netlist::CellId b) { return e.probe_swap(a, b); });
}
BENCHMARK(BM_ProbeSwap)->DenseRange(0, 3);

// Batched candidate scoring vs BM_ProbeSwap: one iteration samples `width`
// pairs (same stream discipline as the scalar bench — one draw per trial)
// and scores them in a single Evaluator::probe_batch call, so items/s are
// directly comparable between the two families. dump_json.py tracks the
// batch-8 per-candidate time against BM_ProbeSwap as probe_batch_speedup.
void run_probe_batch_bench(benchmark::State& state, std::size_t width) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  static std::map<const netlist::Netlist*, std::unique_ptr<placement::Layout>>
      layouts;
  auto& layout = layouts[&nl];
  if (!layout) layout = std::make_unique<placement::Layout>(nl);
  auto eval = make_eval(nl, *layout, 1);
  Rng rng(2);
  const auto& movable = nl.movable_cells();
  std::vector<cost::Move> moves(width);
  std::vector<double> costs(width);
  for (auto _ : state) {
    for (std::size_t w = 0; w < width; ++w) {
      const auto [ia, ib] = rng.distinct_pair(movable.size());
      moves[w] = {movable[ia], movable[ib]};
    }
    eval->probe_batch(moves, costs);
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * width));
  state.SetLabel(nl.name());
}

void BM_ProbeBatch4(benchmark::State& state) {
  run_probe_batch_bench(state, 4);
}
BENCHMARK(BM_ProbeBatch4)->DenseRange(0, 3);

void BM_ProbeBatch8(benchmark::State& state) {
  run_probe_batch_bench(state, 8);
}
BENCHMARK(BM_ProbeBatch8)->DenseRange(0, 3);

void BM_ProbeBatch16(benchmark::State& state) {
  run_probe_batch_bench(state, 16);
}
BENCHMARK(BM_ProbeBatch16)->DenseRange(0, 3);

void BM_ProbeBatch32(benchmark::State& state) {
  run_probe_batch_bench(state, 32);
}
BENCHMARK(BM_ProbeBatch32)->DenseRange(0, 3);

// The compound-move trial loop at one level of eight trials plus the
// committed winner (the winner is applied and immediately undone so each
// iteration measures the same distribution of states).
void BM_TrialLevelProbe(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const placement::Layout layout(nl);
  auto eval = make_eval(nl, layout, 9);
  Rng rng(10);
  const tabu::CellRange range = tabu::full_range(nl);
  constexpr std::size_t kWidth = 8;
  for (auto _ : state) {
    double committed = 0.0;
    const tabu::Move best = tabu::commit_best_of_trials(
        *eval, nl.movable_cells(), range, kWidth, rng, /*memory=*/nullptr,
        /*use_memory=*/false, &committed);
    eval->apply_swap(best.a, best.b);  // revert the winner: keep state stable
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kWidth));
  state.SetLabel(nl.name() + " width=8");
}
BENCHMARK(BM_TrialLevelProbe)->DenseRange(0, 3);

void BM_CompoundMove(benchmark::State& state) {
  const auto& nl = circuit_for(1);  // c532
  const placement::Layout layout(nl);
  auto eval = make_eval(nl, layout, 3);
  Rng rng(4);
  tabu::CompoundParams params;
  params.width = static_cast<std::size_t>(state.range(0));
  params.depth = 3;
  for (auto _ : state) {
    const auto move =
        tabu::build_compound_move(*eval, tabu::full_range(nl), params, rng);
    tabu::undo_compound(*eval, move);
  }
  state.SetLabel("c532 width=" + std::to_string(params.width));
}
BENCHMARK(BM_CompoundMove)->Arg(4)->Arg(8)->Arg(16);

void BM_HpwlRebuild(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const placement::Layout layout(nl);
  Rng rng(5);
  const auto p = placement::Placement::random(nl, layout, rng);
  placement::HpwlState hpwl(p);
  for (auto _ : state) {
    hpwl.rebuild();
    benchmark::DoNotOptimize(hpwl.total());
  }
  state.SetLabel(nl.name());
}
BENCHMARK(BM_HpwlRebuild)->DenseRange(0, 3);

void BM_ExactSta(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const placement::Layout layout(nl);
  Rng rng(6);
  const auto p = placement::Placement::random(nl, layout, rng);
  const placement::HpwlState hpwl(p);
  const timing::DelayModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::run_sta(nl, hpwl, model).critical_delay);
  }
  state.SetLabel(nl.name());
}
BENCHMARK(BM_ExactSta)->DenseRange(0, 3);

void BM_MessageRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> slots(n);
  for (std::size_t i = 0; i < n; ++i) slots[i] = static_cast<std::uint32_t>(i);
  for (auto _ : state) {
    pvm::Message msg = parallel::make_init(slots);
    benchmark::DoNotOptimize(parallel::decode_init(msg).size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * 4));
}
BENCHMARK(BM_MessageRoundTrip)->Arg(56)->Arg(395)->Arg(2243);

/// A result shaped like a served scale-tier solve: `cells` slots holding a
/// shuffled permutation, and full-precision traces of a 200-iteration run.
solver::SolveResult scale_result(std::size_t cells) {
  solver::SolveResult r;
  r.engine = "tabu";
  Rng rng(cells);
  r.best_slots.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    r.best_slots[i] = static_cast<netlist::CellId>(i);
  }
  for (std::size_t i = cells; i > 1; --i) {
    std::swap(r.best_slots[i - 1], r.best_slots[rng.below(i)]);
  }
  r.initial_cost = 0.9 + 0.1 * rng.uniform();
  r.best_cost = 0.5 * rng.uniform();
  r.best_quality = 1.0 - r.best_cost;
  r.best_objectives = {1e6 * rng.uniform(), 1e3 * rng.uniform(), 0.0};
  for (Series* s : {&r.cost_trace, &r.best_trace, &r.best_vs_time}) {
    for (std::size_t i = 0; i < 200; ++i) {
      s->add(static_cast<double>(i), rng.uniform());
    }
  }
  r.iterations = r.stats.iterations = 200;
  r.makespan = rng.uniform();
  return r;
}

void BM_EncodeResult(benchmark::State& state) {
  const auto result = scale_result(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = service::encode_result(result);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  state.SetLabel(std::to_string(state.range(0)) + " slots");
}
BENCHMARK(BM_EncodeResult)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

void BM_DecodeResult(benchmark::State& state) {
  const std::string text = service::encode_result(
      scale_result(static_cast<std::size_t>(state.range(0))));
  std::string error;
  for (auto _ : state) {
    const auto back = service::decode_result(text, &error);
    if (!back) state.SkipWithError(error.c_str());
    benchmark::DoNotOptimize(back->best_slots.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
  state.SetLabel(std::to_string(state.range(0)) + " slots");
}
BENCHMARK(BM_DecodeResult)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

void BM_SimFullSearch(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  auto config = experiments::base_config(nl, 7, /*quick=*/true);
  config.num_tsws = 4;
  config.clws_per_tsw = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::run_sim(nl, config).best_cost);
  }
  state.SetLabel(nl.name() + " 4x2 quick");
}
BENCHMARK(BM_SimFullSearch)->DenseRange(0, 1);

}  // namespace

// Custom main so the shared --smoke convention works here too (see
// bench_common.hpp): --smoke clamps every benchmark's measuring time, which
// keeps `micro_core --smoke --benchmark_format=json` (the input to
// bench/dump_json.py and the CI perf-trail artifact) seconds-long. All other
// arguments pass through to google-benchmark untouched.
int main(int argc, char** argv) {
  std::vector<std::string> storage(argv, argv + argc);
  bool smoke = false;
  std::vector<char*> args;
  for (auto& arg : storage) {
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(arg.data());
  }
  // Long enough that the tracked probe-throughput ratios are stable run to
  // run (the perf-trail JSON is diffed across pushes), short enough that
  // the whole tier stays seconds-long.
  std::string min_time = "--benchmark_min_time=0.2";
  if (smoke) args.push_back(min_time.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
