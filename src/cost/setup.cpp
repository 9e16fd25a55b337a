#include "cost/setup.hpp"

#include <utility>

#include "placement/placement.hpp"
#include "support/rng.hpp"
#include "timing/paths.hpp"

namespace pts::cost {

EvaluatorSetup make_evaluator_setup(const netlist::Netlist& nl,
                                    const CostParams& params,
                                    std::uint64_t init_seed) {
  EvaluatorSetup setup;
  setup.layout = std::make_unique<placement::Layout>(nl);
  Rng init_rng(init_seed);
  auto initial = placement::Placement::random(nl, *setup.layout, init_rng);
  setup.paths =
      timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
  const FuzzyGoals goals =
      Evaluator::calibrate_goals(initial, *setup.paths, params);
  setup.eval =
      std::make_unique<Evaluator>(std::move(initial), setup.paths, params, goals);
  return setup;
}

}  // namespace pts::cost
