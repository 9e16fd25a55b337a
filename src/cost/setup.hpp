// The start of every run: the setup recipe the "tabu", "anneal", "local"
// and "constructive" engines (through solver::detail::make_sequential_setup),
// the "parallel-shared" engine and the parallel-sim / parallel-threaded
// engines (through parallel::SearchSetup) share. One recipe keeps a 1-thread
// parallel-shared run bit-identical to "tabu" by construction rather than by
// two copies kept in step.
#pragma once

#include <cstdint>
#include <memory>

#include "cost/evaluator.hpp"
#include "netlist/netlist.hpp"
#include "placement/layout.hpp"

namespace pts::cost {

/// An evaluator, the layout its placement points at (heap-allocated so the
/// pair can move) and the monitored paths it shares.
struct EvaluatorSetup {
  std::unique_ptr<placement::Layout> layout;
  std::shared_ptr<const timing::PathSet> paths;
  std::unique_ptr<Evaluator> eval;
};

/// Layout, a random placement drawn from `init_seed`, the K critical paths
/// `params` asks for, goals calibrated against that placement, and an
/// evaluator carrying it all. The layout and the paths are pure functions
/// of (netlist, params); the placement and the goals also depend on
/// `init_seed`.
EvaluatorSetup make_evaluator_setup(const netlist::Netlist& nl,
                                    const CostParams& params,
                                    std::uint64_t init_seed);

}  // namespace pts::cost
