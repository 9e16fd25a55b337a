#include "service/codec.hpp"

#include "service/schema.hpp"

namespace pts::service {

namespace {

using json::Value;

// -- stop reason ------------------------------------------------------------

bool stop_reason_from_name(const std::string& name, StopReason& out) {
  for (const StopReason reason :
       {StopReason::Completed, StopReason::IterationBudget, StopReason::TimeLimit,
        StopReason::TargetCost, StopReason::TargetQuality, StopReason::Cancelled,
        StopReason::DeadlineExpired}) {
    if (name == stop_reason_name(reason)) {
      out = reason;
      return true;
    }
  }
  return false;
}

}  // namespace

// -- spec -------------------------------------------------------------------

json::Value spec_to_json(const JobRequest& job) {
  const solver::SolveSpec& spec = job.spec;
  Value out = Value::object();
  out.set("circuit", Value(job.circuit));
  out.set("engine", Value(spec.engine));
  out.set("seed", Value(static_cast<double>(spec.seed)));
  out.set("deadline_seconds", Value(job.deadline_seconds));
  if (!spec.initial_slots.empty()) {
    // Warm start (ECO mode): omitted when empty so pre-existing encodings
    // stay byte-stable.
    out.set("initial_slots", uints_to_json(spec.initial_slots));
  }

  Value cost = Value::object();
  cost.set("num_paths", Value(static_cast<double>(spec.cost.num_paths)));
  cost.set("target_improvement", Value(spec.cost.target_improvement));
  cost.set("initial_membership", Value(spec.cost.initial_membership));
  cost.set("beta", Value(spec.cost.beta));
  cost.set("rebuild_interval", Value(static_cast<double>(spec.cost.rebuild_interval)));
  out.set("cost", std::move(cost));

  Value compound = Value::object();
  compound.set("width", Value(static_cast<double>(spec.tabu.compound.width)));
  compound.set("depth", Value(static_cast<double>(spec.tabu.compound.depth)));
  compound.set("early_accept", Value(spec.tabu.compound.early_accept));
  Value tabu = Value::object();
  tabu.set("tenure", Value(static_cast<double>(spec.tabu.tenure)));
  tabu.set("iterations", Value(static_cast<double>(spec.tabu.iterations)));
  tabu.set("aspiration", Value(spec.tabu.aspiration));
  tabu.set("trace_stride", Value(static_cast<double>(spec.tabu.trace_stride)));
  tabu.set("compound", std::move(compound));
  out.set("tabu", std::move(tabu));

  Value anneal = Value::object();
  anneal.set("initial_acceptance", Value(spec.anneal.initial_acceptance));
  anneal.set("cooling", Value(spec.anneal.cooling));
  anneal.set("moves_per_temp", Value(static_cast<double>(spec.anneal.moves_per_temp)));
  anneal.set("final_temp_ratio", Value(spec.anneal.final_temp_ratio));
  anneal.set("trace_stride", Value(static_cast<double>(spec.anneal.trace_stride)));
  out.set("anneal", std::move(anneal));

  Value local = Value::object();
  local.set("candidates_per_iteration",
            Value(static_cast<double>(spec.local.candidates_per_iteration)));
  local.set("patience", Value(static_cast<double>(spec.local.patience)));
  local.set("max_iterations", Value(static_cast<double>(spec.local.max_iterations)));
  local.set("trace_stride", Value(static_cast<double>(spec.local.trace_stride)));
  out.set("local", std::move(local));

  Value diversify = Value::object();
  diversify.set("depth", Value(static_cast<double>(spec.parallel.diversify.depth)));
  diversify.set("width", Value(static_cast<double>(spec.parallel.diversify.width)));
  diversify.set("enabled", Value(spec.parallel.diversify.enabled));
  Value parallel = Value::object();
  parallel.set("num_tsws", Value(static_cast<double>(spec.parallel.num_tsws)));
  parallel.set("clws_per_tsw", Value(static_cast<double>(spec.parallel.clws_per_tsw)));
  parallel.set("local_iterations",
               Value(static_cast<double>(spec.parallel.local_iterations)));
  parallel.set("global_iterations",
               Value(static_cast<double>(spec.parallel.global_iterations)));
  parallel.set("diversify", std::move(diversify));
  out.set("parallel", std::move(parallel));

  Value shared = Value::object();
  shared.set("threads", Value(static_cast<double>(spec.shared.threads)));
  out.set("shared", std::move(shared));

  Value stop = Value::object();
  stop.set("max_iterations", Value(static_cast<double>(spec.stop.max_iterations)));
  stop.set("max_seconds", Value(spec.stop.max_seconds));
  stop.set("target_cost", spec.stop.target_cost ? Value(*spec.stop.target_cost)
                                                : Value());
  stop.set("target_quality",
           spec.stop.target_quality ? Value(*spec.stop.target_quality) : Value());
  out.set("stop", std::move(stop));
  return out;
}

std::optional<JobRequest> spec_from_json(const json::Value& value,
                                         std::string* error) {
  std::string err;
  JobRequest job;
  solver::SolveSpec& spec = job.spec;

  ObjectReader reader(value, "spec", err);
  reader.read_string("circuit", job.circuit);
  reader.read_string("engine", spec.engine);
  reader.read_uint("seed", spec.seed);
  reader.read_double("deadline_seconds", job.deadline_seconds);
  reader.read_uints("initial_slots", spec.initial_slots);

  if (auto cost = reader.read_object("cost")) {
    cost->read_uint("num_paths", spec.cost.num_paths);
    cost->read_double("target_improvement", spec.cost.target_improvement);
    cost->read_double("initial_membership", spec.cost.initial_membership);
    cost->read_double("beta", spec.cost.beta);
    cost->read_uint("rebuild_interval", spec.cost.rebuild_interval);
    cost->finish();
  }
  if (auto tabu = reader.read_object("tabu")) {
    tabu->read_uint("tenure", spec.tabu.tenure);
    tabu->read_uint("iterations", spec.tabu.iterations);
    tabu->read_bool("aspiration", spec.tabu.aspiration);
    tabu->read_uint("trace_stride", spec.tabu.trace_stride);
    if (auto compound = tabu->read_object("compound")) {
      compound->read_uint("width", spec.tabu.compound.width);
      compound->read_uint("depth", spec.tabu.compound.depth);
      compound->read_bool("early_accept", spec.tabu.compound.early_accept);
      compound->finish();
    }
    tabu->finish();
  }
  if (auto anneal = reader.read_object("anneal")) {
    anneal->read_double("initial_acceptance", spec.anneal.initial_acceptance);
    anneal->read_double("cooling", spec.anneal.cooling);
    anneal->read_uint("moves_per_temp", spec.anneal.moves_per_temp);
    anneal->read_double("final_temp_ratio", spec.anneal.final_temp_ratio);
    anneal->read_uint("trace_stride", spec.anneal.trace_stride);
    anneal->finish();
  }
  if (auto local = reader.read_object("local")) {
    local->read_uint("candidates_per_iteration",
                     spec.local.candidates_per_iteration);
    local->read_uint("patience", spec.local.patience);
    local->read_uint("max_iterations", spec.local.max_iterations);
    local->read_uint("trace_stride", spec.local.trace_stride);
    local->finish();
  }
  if (auto parallel = reader.read_object("parallel")) {
    parallel->read_uint("num_tsws", spec.parallel.num_tsws);
    parallel->read_uint("clws_per_tsw", spec.parallel.clws_per_tsw);
    parallel->read_uint("local_iterations", spec.parallel.local_iterations);
    parallel->read_uint("global_iterations", spec.parallel.global_iterations);
    if (auto diversify = parallel->read_object("diversify")) {
      diversify->read_uint("depth", spec.parallel.diversify.depth);
      diversify->read_uint("width", spec.parallel.diversify.width);
      diversify->read_bool("enabled", spec.parallel.diversify.enabled);
      diversify->finish();
    }
    parallel->finish();
  }
  if (auto shared = reader.read_object("shared")) {
    shared->read_uint("threads", spec.shared.threads);
    shared->finish();
  }
  if (auto stop = reader.read_object("stop")) {
    stop->read_uint("max_iterations", spec.stop.max_iterations);
    stop->read_double("max_seconds", spec.stop.max_seconds);
    stop->read_opt_double("target_cost", spec.stop.target_cost);
    stop->read_opt_double("target_quality", spec.stop.target_quality);
    stop->finish();
  }
  reader.finish();

  if (job.circuit.empty()) reader.fail("'circuit' is required");
  if (!err.empty()) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }
  return job;
}

// -- result -----------------------------------------------------------------

json::Value result_to_json(const solver::SolveResult& result) {
  Value out = Value::object();
  out.set("engine", Value(result.engine));
  out.set("initial_cost", Value(result.initial_cost));
  out.set("best_cost", Value(result.best_cost));
  out.set("best_quality", Value(result.best_quality));

  out.set("best_objectives", objectives_to_json(result.best_objectives));
  out.set("best_slots", uints_to_json(result.best_slots));
  out.set("cost_trace", series_to_json(result.cost_trace));
  out.set("best_trace", series_to_json(result.best_trace));
  out.set("best_vs_time", series_to_json(result.best_vs_time));
  out.set("best_vs_global", series_to_json(result.best_vs_global));
  out.set("stats", stats_to_json(result.stats));

  out.set("iterations", Value(static_cast<double>(result.iterations)));
  out.set("makespan", Value(result.makespan));
  out.set("stop_reason", Value(std::string(stop_reason_name(result.stop_reason))));
  out.set("converged", Value(result.converged));
  return out;
}

std::optional<solver::SolveResult> result_from_json(const json::Value& value,
                                                    std::string* error) {
  std::string err;
  solver::SolveResult result;

  ObjectReader reader(value, "result", err);
  reader.read_string("engine", result.engine);
  reader.read_double("initial_cost", result.initial_cost);
  reader.read_double("best_cost", result.best_cost);
  reader.read_double("best_quality", result.best_quality);

  read_objectives(reader, "best_objectives", result.best_objectives);
  reader.read_uints("best_slots", result.best_slots);
  read_series(reader, "cost_trace", result.cost_trace);
  read_series(reader, "best_trace", result.best_trace);
  read_series(reader, "best_vs_time", result.best_vs_time);
  read_series(reader, "best_vs_global", result.best_vs_global);
  read_stats(reader, "stats", result.stats);

  reader.read_uint("iterations", result.iterations);
  reader.read_double("makespan", result.makespan);
  std::string stop_reason;
  reader.read_string("stop_reason", stop_reason);
  if (!stop_reason.empty() &&
      !stop_reason_from_name(stop_reason, result.stop_reason)) {
    reader.fail("stop_reason: unknown value '" + stop_reason + "'");
  }
  reader.read_bool("converged", result.converged);
  reader.finish();

  if (!err.empty()) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }
  return result;
}

// -- result cache keying ----------------------------------------------------

bool spec_cacheable(const JobRequest& job) {
  // A wall-clock stop condition makes the outcome depend on machine speed
  // and load; every other stop reason is a pure function of the spec.
  if (job.spec.stop.max_seconds > 0.0) return false;
  // parallel-threaded races real threads (benches use parallel-sim for the
  // deterministic trajectory); every other engine is deterministic per spec.
  return job.spec.engine != "parallel-threaded";
}

std::string cache_key(const JobRequest& job, std::uint64_t circuit_hash) {
  // Canonical form: the content hash pins the circuit *bytes* (the name in
  // the spec only pins the registry entry), and the deadline is zeroed —
  // it changes when a job is killed, never what it computes. spec_to_json
  // emits members in one fixed order, so the dump is canonical.
  JobRequest canonical = job;
  canonical.deadline_seconds = 0.0;
  return hex_u64(circuit_hash) + "|" + encode_spec(canonical);
}

// -- string conveniences ----------------------------------------------------

std::string encode_spec(const JobRequest& job) { return json::dump(spec_to_json(job)); }

std::optional<JobRequest> decode_spec(std::string_view text, std::string* error) {
  const auto value = json::parse(text, error);
  if (!value) return std::nullopt;
  return spec_from_json(*value, error);
}

std::string encode_result(const solver::SolveResult& result) {
  return json::dump(result_to_json(result));
}

std::optional<solver::SolveResult> decode_result(std::string_view text,
                                                 std::string* error) {
  const auto value = json::parse(text, error);
  if (!value) return std::nullopt;
  return result_from_json(*value, error);
}

}  // namespace pts::service
