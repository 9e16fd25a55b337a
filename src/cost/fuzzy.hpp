// Fuzzy goal-based multi-objective cost (Sait/Youssef fuzzy goal-directed
// search, reference [5] of the paper).
//
// Each objective c_i (wirelength, delay, area) has a goal g_i and a
// tolerance t_i. Its membership in the fuzzy set "good solution" is
// piecewise linear:
//
//     mu_i = 1                         for c_i <= g_i
//     mu_i = 1 - (c_i - g_i)/(t_i g_i) for g_i < c_i < g_i (1 + t_i)
//     mu_i = 0                         beyond
//
// Memberships are combined with an ordered-weighted-average (OWA) operator
// blending the strict intersection (min) with the arithmetic mean:
//
//     mu = beta * min_i mu_i + (1 - beta) * mean_i mu_i
//
// The scalar cost the search minimizes is 1 - mu. For ranking, the
// *unclamped* linear extension of mu_i (which goes negative past the
// tolerance edge) is used so the search keeps a gradient even when an
// objective is far outside its tolerance band; reported "quality" always
// uses the clamped value in [0, 1].
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "support/check.hpp"

namespace pts::cost {

/// The paper's three placement objectives.
enum class Objective : std::size_t { Wirelength = 0, Delay = 1, Area = 2 };
inline constexpr std::size_t kNumObjectives = 3;

struct Objectives {
  double wirelength = 0.0;
  double delay = 0.0;
  double area = 0.0;

  double get(Objective o) const {
    switch (o) {
      case Objective::Wirelength: return wirelength;
      case Objective::Delay: return delay;
      case Objective::Area: return area;
    }
    PTS_CHECK(false);
  }
  std::array<double, kNumObjectives> as_array() const {
    return {wirelength, delay, area};
  }
};

/// One objective's membership function.
struct MembershipFn {
  double goal = 1.0;
  double tolerance = 1.0;  ///< fractional band width; mu hits 0 at goal*(1+tol)

  /// Unclamped linear extension (may exceed [0, 1]).
  double raw(double value) const {
    PTS_DCHECK(goal > 0.0 && tolerance > 0.0);
    return 1.0 - (value - goal) / (tolerance * goal);
  }
  /// Clamped membership in [0, 1].
  double clamped(double value) const {
    const double m = raw(value);
    return m < 0.0 ? 0.0 : (m > 1.0 ? 1.0 : m);
  }
};

struct FuzzyGoals {
  std::array<MembershipFn, kNumObjectives> membership;
  /// OWA blend: 1.0 = pure min (strict intersection), 0.0 = pure mean.
  double beta = 0.6;

  const MembershipFn& fn(Objective o) const {
    return membership[static_cast<std::size_t>(o)];
  }
  MembershipFn& fn(Objective o) {
    return membership[static_cast<std::size_t>(o)];
  }

  /// Scalar cost (minimized by the search): 1 - OWA of raw memberships.
  double cost(const Objectives& objectives) const;

  /// Batched cost(): one OWA pass over N objective tuples. costs[i] is
  /// bit-identical to cost(objectives[i]) — same membership arithmetic,
  /// same min/mean fold — the batch form just keeps the goal/tolerance
  /// constants live in registers across the whole batch.
  void cost_batch(std::span<const Objectives> objectives,
                  std::span<double> costs) const;

  /// Reported quality in [0, 1]: OWA of clamped memberships.
  double quality(const Objectives& objectives) const;

  /// Calibrates goals from the initial solution: goal_i =
  /// `target_improvement` * initial_i, tolerance sized so the initial
  /// solution sits at raw membership `initial_membership` (keeps initial
  /// cost finite and comparable across circuits). `target_improvement`
  /// must lie in (0, 1): a goal equal to the initial value would leave no
  /// room to size the tolerance from.
  static FuzzyGoals calibrate(const Objectives& initial, double target_improvement,
                              double initial_membership, double beta);
};

}  // namespace pts::cost
