#include "solver/solver.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "support/check.hpp"

namespace pts::solver {

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Engine>, std::less<>> engines;
};

/// Built-ins are installed on first access (never via static initializers:
/// the pts archive gives no ordering or liveness guarantees for
/// self-registering translation units).
Registry& registry() {
  static Registry* instance = [] {
    auto* reg = new Registry();
    for (auto& engine : detail::make_builtin_engines()) {
      const std::string name(engine->name());
      reg->engines.emplace(name, std::move(engine));
    }
    return reg;
  }();
  return *instance;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out += sep;
    out += part;
  }
  return out;
}

}  // namespace

bool register_engine(std::unique_ptr<Engine> engine) {
  PTS_CHECK(engine != nullptr);
  const std::string name(engine->name());
  PTS_CHECK_MSG(!name.empty(), "engine name must be non-empty");
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.engines.emplace(name, std::move(engine)).second;
}

const Engine* find_engine(std::string_view name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.engines.find(name);
  return it == reg.engines.end() ? nullptr : it->second.get();
}

std::vector<std::string> engine_names() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.engines.size());
  for (const auto& [name, engine] : reg.engines) {
    (void)engine;
    names.push_back(name);
  }
  return names;  // std::map iteration order: already sorted
}

std::string detail::slot_permutation_error(
    const netlist::Netlist& nl, const std::vector<netlist::CellId>& slots,
    std::string_view what) {
  const std::string name(what);
  if (slots.size() != nl.num_movable()) {
    return name + " has " + std::to_string(slots.size()) +
           " entries; expected one per movable cell (" +
           std::to_string(nl.num_movable()) + ")";
  }
  std::vector<bool> seen(nl.num_cells(), false);
  for (const netlist::CellId cell : slots) {
    if (cell >= nl.num_cells() || !nl.cell(cell).movable()) {
      return name + " contains id " + std::to_string(cell) +
             ", which is not a movable cell of this netlist";
    }
    if (seen[cell]) {
      return name + " assigns cell " + std::to_string(cell) +
             " to more than one slot";
    }
    seen[cell] = true;
  }
  return {};
}

std::vector<std::string> Solver::validate(const SolveSpec& spec) const {
  std::vector<std::string> errors;

  const Engine* engine = find_engine(spec.engine);
  if (engine == nullptr) {
    errors.push_back("unknown engine '" + spec.engine +
                     "' (registered: " + join(engine_names(), ", ") + ")");
  }

  if (spec.netlist == nullptr) {
    errors.push_back("netlist is null");
  } else if (spec.netlist->num_movable() < 2) {
    errors.push_back("netlist has fewer than 2 movable cells; nothing to swap");
  }

  if (spec.cost.num_paths < 1) {
    errors.push_back("cost.num_paths must be >= 1");
  }
  if (!(spec.cost.beta >= 0.0 && spec.cost.beta <= 1.0)) {
    errors.push_back("cost.beta must be in [0, 1]");
  }
  if (spec.cost.rebuild_interval < 1) {
    errors.push_back("cost.rebuild_interval must be >= 1");
  }
  if (!(spec.cost.target_improvement > 0.0 &&
        spec.cost.target_improvement < 1.0)) {
    errors.push_back("cost.target_improvement must be in (0, 1)");
  }
  if (!(spec.cost.initial_membership >= 0.0 &&
        spec.cost.initial_membership < 1.0)) {
    errors.push_back("cost.initial_membership must be in [0, 1)");
  }

  if (!spec.initial_slots.empty() && spec.netlist != nullptr) {
    std::string error = detail::slot_permutation_error(
        *spec.netlist, spec.initial_slots, "initial_slots");
    if (!error.empty()) errors.push_back(std::move(error));
  }

  if (std::isnan(spec.stop.max_seconds)) {
    errors.push_back("stop.max_seconds must not be NaN");
  }
  if (spec.stop.target_cost && std::isnan(*spec.stop.target_cost)) {
    errors.push_back("stop.target_cost must not be NaN");
  }
  if (spec.stop.target_quality &&
      !(*spec.stop.target_quality >= 0.0 && *spec.stop.target_quality <= 1.0)) {
    errors.push_back("stop.target_quality must be in [0, 1]");
  }

  if (engine != nullptr) engine->validate(spec, errors);
  return errors;
}

SolveResult Solver::solve(const SolveSpec& spec) const {
  const auto errors = validate(spec);
  if (!errors.empty()) {
    const std::string message = "invalid SolveSpec for engine '" + spec.engine +
                                "': " + join(errors, "; ");
    check_failed("Solver::solve(spec)", __FILE__, __LINE__, message.c_str());
  }
  SolveResult result = find_engine(spec.engine)->solve(spec);
  result.engine = spec.engine;
  return result;
}

}  // namespace pts::solver
