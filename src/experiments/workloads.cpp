#include "experiments/workloads.hpp"

#include <cmath>
#include <map>
#include <mutex>

namespace pts::experiments {

const netlist::Netlist& circuit(std::string_view name) {
  // The cache is shared process state and the ptsd daemon calls this from
  // concurrent per-connection reader threads. std::map never invalidates
  // node references, so returned Netlist& stay valid across later inserts;
  // the lock only needs to cover lookup + emplace.
  static std::mutex mutex;
  static std::map<std::string, netlist::Netlist> cache;
  const std::string key(name);
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, netlist::make_benchmark(name)).first;
  }
  return it->second;
}

std::vector<std::string> circuit_names() {
  std::vector<std::string> names;
  for (const auto& info : netlist::paper_benchmarks()) names.push_back(info.name);
  return names;
}

std::vector<std::string> scale_circuit_names() {
  std::vector<std::string> names;
  for (const auto& info : netlist::scale_benchmarks()) names.push_back(info.name);
  return names;
}

parallel::PtsConfig base_config(const netlist::Netlist& netlist,
                                std::uint64_t seed, bool quick) {
  parallel::PtsConfig config;
  config.seed = seed;
  config.num_tsws = 4;
  config.clws_per_tsw = 1;
  config.cluster = pvm::ClusterConfig::paper_cluster();
  config.set_policy(parallel::CollectionPolicy::HalfForce);

  config.tabu.tenure = 10;
  config.tabu.compound.width = 8;
  config.tabu.compound.depth = 3;
  config.diversify.depth = 4;
  config.cost.num_paths = 24;

  // Iteration budgets grow with circuit size (the paper fixes them per
  // circuit but does not publish the values).
  const std::size_t n = netlist.num_movable();

  // Above the paper's largest circuit the paper constants starve the
  // search: 8 trials per level against 10k+ cells almost never finds an
  // improving swap, so tabu used to report tt50 = -1 (never reached half
  // its own improvement) on the scale tier. Tenure and candidate width
  // scale with ~sqrt(movable cells) instead; paper-sized circuits keep the
  // paper constants exactly, so every pinned paper-circuit trajectory is
  // untouched.
  const std::size_t paper_max = netlist::paper_benchmarks().back().cells;
  if (n > paper_max) {
    const double root = std::sqrt(static_cast<double>(n));
    config.tabu.tenure = static_cast<std::size_t>(root / 2.0);
    config.tabu.compound.width = static_cast<std::size_t>(root);
  }
  if (quick) {
    config.global_iterations = 4;
    config.local_iterations = n < 100 ? 4 : 6;
  } else {
    config.global_iterations = n < 100 ? 6 : (n < 1000 ? 8 : 10);
    config.local_iterations = n < 100 ? 8 : (n < 1000 ? 10 : 12);
  }
  return config;
}

solver::SolveSpec base_spec(const netlist::Netlist& netlist,
                            std::string_view engine, std::uint64_t seed,
                            bool quick) {
  solver::SolveSpec spec;
  spec.engine = std::string(engine);
  spec.netlist = &netlist;
  spec.parallel = base_config(netlist, seed, quick);
  spec.seed = spec.parallel.seed;
  spec.cost = spec.parallel.cost;
  spec.tabu = spec.parallel.tabu;
  return spec;
}

solver::SolveResult run_sim(const netlist::Netlist& netlist,
                            const parallel::PtsConfig& config) {
  solver::SolveSpec spec;
  spec.engine = "parallel-sim";
  spec.netlist = &netlist;
  spec.seed = config.seed;
  spec.cost = config.cost;
  spec.tabu = config.tabu;
  spec.parallel = config;
  return solver::Solver().solve(spec);
}

double improvement_threshold(const solver::SolveResult& baseline,
                             double fraction) {
  PTS_CHECK(fraction > 0.0 && fraction <= 1.0);
  return baseline.initial_cost -
         fraction * (baseline.initial_cost - baseline.best_cost);
}

}  // namespace pts::experiments
