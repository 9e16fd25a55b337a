#include "parallel/config.hpp"

#include "cost/setup.hpp"

namespace pts::parallel {
namespace {

Rng derive_stream(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 sm((seed ^ 0xa5a5'5a5a'1234'9876ULL) +
                salt * 0x9e3779b97f4a7c15ULL);
  return Rng(sm.next());
}

std::uint64_t stream_index(const PtsConfig& config, std::size_t tsw) {
  return config.shared_tsw_streams ? 0 : tsw;
}

}  // namespace

std::size_t clamp_workers(std::size_t requested, std::size_t cap) {
  if (cap < 1) cap = 1;
  if (requested < 1) return 1;
  return requested < cap ? requested : cap;
}

Rng tsw_stream(const PtsConfig& config, std::size_t tsw) {
  return derive_stream(config.seed, 1000 + stream_index(config, tsw));
}

Rng clw_stream(const PtsConfig& config, std::size_t tsw, std::size_t clw) {
  return derive_stream(config.seed,
                       3000 + stream_index(config, tsw) * 64 + clw);
}

SearchSetup::SearchSetup(const netlist::Netlist& nl, const PtsConfig& cfg)
    : netlist(&nl), config(cfg) {
  PTS_CHECK(config.num_tsws >= 1);
  PTS_CHECK(config.clws_per_tsw >= 1);
  PTS_CHECK(config.local_iterations >= 1);
  PTS_CHECK(config.global_iterations >= 1);

  // Oversubscription guard: partition_cells(n, workers) with workers > n
  // emits empty ranges, and sample_move aborts on an empty range. More
  // workers than movable cells cannot do useful work anyway, so both
  // engines run the clamped counts (this stored config is the one they
  // read their worker counts from).
  config.num_tsws = clamp_workers(config.num_tsws, nl.num_movable());
  config.clws_per_tsw = clamp_workers(config.clws_per_tsw, nl.num_movable());

  cost::EvaluatorSetup base =
      cost::make_evaluator_setup(nl, config.cost, config.seed);
  layout = std::move(base.layout);
  initial_slots = base.eval->placement().slots();
  paths = std::move(base.paths);
  goals = base.eval->goals();
  initial_cost = base.eval->cost();
}

std::unique_ptr<cost::Evaluator> SearchSetup::make_evaluator(
    const std::vector<netlist::CellId>& slots) const {
  placement::Placement p(*netlist, *layout);
  p.assign_slots(slots);
  return std::make_unique<cost::Evaluator>(std::move(p), paths, config.cost,
                                           goals);
}

}  // namespace pts::parallel
