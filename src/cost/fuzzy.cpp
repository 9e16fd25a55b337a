#include "cost/fuzzy.hpp"

#include <algorithm>

namespace pts::cost {
namespace {

double owa(double beta, const std::array<double, kNumObjectives>& mu) {
  const double lo = *std::min_element(mu.begin(), mu.end());
  double sum = 0.0;
  for (double m : mu) sum += m;
  const double mean = sum / static_cast<double>(kNumObjectives);
  return beta * lo + (1.0 - beta) * mean;
}

}  // namespace

double FuzzyGoals::cost(const Objectives& objectives) const {
  std::array<double, kNumObjectives> mu{};
  const auto values = objectives.as_array();
  for (std::size_t i = 0; i < kNumObjectives; ++i) {
    mu[i] = membership[i].raw(values[i]);
  }
  return 1.0 - owa(beta, mu);
}

void FuzzyGoals::cost_batch(std::span<const Objectives> objectives,
                            std::span<double> costs) const {
  PTS_DCHECK(costs.size() == objectives.size());
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    costs[i] = cost(objectives[i]);
  }
}

double FuzzyGoals::quality(const Objectives& objectives) const {
  std::array<double, kNumObjectives> mu{};
  const auto values = objectives.as_array();
  for (std::size_t i = 0; i < kNumObjectives; ++i) {
    mu[i] = membership[i].clamped(values[i]);
  }
  return owa(beta, mu);
}

FuzzyGoals FuzzyGoals::calibrate(const Objectives& initial,
                                 double target_improvement,
                                 double initial_membership, double beta) {
  PTS_CHECK(target_improvement > 0.0 && target_improvement < 1.0);
  PTS_CHECK(initial_membership >= 0.0 && initial_membership < 1.0);
  PTS_CHECK(beta >= 0.0 && beta <= 1.0);
  FuzzyGoals goals;
  goals.beta = beta;
  const auto values = initial.as_array();
  for (std::size_t i = 0; i < kNumObjectives; ++i) {
    // Degenerate objectives (e.g. zero area in a toy netlist) get a unit
    // goal so the membership stays well-defined and constant.
    const double value = values[i] > 0.0 ? values[i] : 1.0;
    const double goal = value * target_improvement;
    // Solve raw(value) == initial_membership for tolerance:
    //   1 - (value - goal) / (tol * goal) = m  =>  tol = (value - goal) /
    //   ((1 - m) * goal)
    const double tol =
        (value - goal) / ((1.0 - initial_membership) * goal);
    goals.membership[i].goal = goal;
    goals.membership[i].tolerance = std::max(tol, 1e-9);
  }
  return goals;
}

}  // namespace pts::cost
