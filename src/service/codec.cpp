#include "service/codec.hpp"

#include "service/schema.hpp"

namespace pts::service {

namespace {

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

// -- spec -------------------------------------------------------------------

void write_spec(json::Writer& out, const JobRequest& job, double deadline) {
  const solver::SolveSpec& spec = job.spec;
  out.begin_object();
  out.key("circuit").string(job.circuit);
  out.key("engine").string(spec.engine);
  out.key("seed").number(static_cast<double>(spec.seed));
  out.key("deadline_seconds").number(deadline);
  if (!spec.initial_slots.empty()) {
    // Warm start (ECO mode): omitted when empty so pre-existing encodings
    // stay byte-stable.
    write_uints(out.key("initial_slots"), spec.initial_slots);
  }

  out.key("cost").begin_object();
  out.key("num_paths").number(static_cast<double>(spec.cost.num_paths));
  out.key("target_improvement").number(spec.cost.target_improvement);
  out.key("initial_membership").number(spec.cost.initial_membership);
  out.key("beta").number(spec.cost.beta);
  out.key("rebuild_interval")
      .number(static_cast<double>(spec.cost.rebuild_interval));
  out.end_object();

  out.key("tabu").begin_object();
  out.key("tenure").number(static_cast<double>(spec.tabu.tenure));
  out.key("iterations").number(static_cast<double>(spec.tabu.iterations));
  out.key("aspiration").boolean(spec.tabu.aspiration);
  out.key("trace_stride").number(static_cast<double>(spec.tabu.trace_stride));
  out.key("compound").begin_object();
  out.key("width").number(static_cast<double>(spec.tabu.compound.width));
  out.key("depth").number(static_cast<double>(spec.tabu.compound.depth));
  out.key("early_accept").boolean(spec.tabu.compound.early_accept);
  out.end_object();
  out.end_object();

  out.key("anneal").begin_object();
  out.key("initial_acceptance").number(spec.anneal.initial_acceptance);
  out.key("cooling").number(spec.anneal.cooling);
  out.key("moves_per_temp")
      .number(static_cast<double>(spec.anneal.moves_per_temp));
  out.key("final_temp_ratio").number(spec.anneal.final_temp_ratio);
  out.key("trace_stride").number(static_cast<double>(spec.anneal.trace_stride));
  out.end_object();

  out.key("local").begin_object();
  out.key("candidates_per_iteration")
      .number(static_cast<double>(spec.local.candidates_per_iteration));
  out.key("patience").number(static_cast<double>(spec.local.patience));
  out.key("max_iterations")
      .number(static_cast<double>(spec.local.max_iterations));
  out.key("trace_stride").number(static_cast<double>(spec.local.trace_stride));
  out.end_object();

  out.key("parallel").begin_object();
  out.key("num_tsws").number(static_cast<double>(spec.parallel.num_tsws));
  out.key("clws_per_tsw")
      .number(static_cast<double>(spec.parallel.clws_per_tsw));
  out.key("local_iterations")
      .number(static_cast<double>(spec.parallel.local_iterations));
  out.key("global_iterations")
      .number(static_cast<double>(spec.parallel.global_iterations));
  out.key("diversify").begin_object();
  out.key("depth").number(static_cast<double>(spec.parallel.diversify.depth));
  out.key("width").number(static_cast<double>(spec.parallel.diversify.width));
  out.key("enabled").boolean(spec.parallel.diversify.enabled);
  out.end_object();
  out.end_object();

  out.key("shared").begin_object();
  out.key("threads").number(static_cast<double>(spec.shared.threads));
  out.end_object();

  out.key("stop").begin_object();
  out.key("max_iterations").number(static_cast<double>(spec.stop.max_iterations));
  out.key("max_seconds").number(spec.stop.max_seconds);
  out.key("target_cost").optional_number(spec.stop.target_cost);
  out.key("target_quality").optional_number(spec.stop.target_quality);
  out.end_object();
  out.end_object();
}

}  // namespace

std::string encode_spec(const JobRequest& job) {
  std::string text;
  json::Writer out(text);
  write_spec(out, job, job.deadline_seconds);
  return text;
}

std::optional<JobRequest> decode_spec(std::string_view text, std::string* error) {
  json::Document doc;
  if (!doc.parse(text, error)) return std::nullopt;
  std::string err;
  JobRequest job;
  solver::SolveSpec& spec = job.spec;

  ObjectReader reader(doc.root(), "spec", err);
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

std::string encode_result(const solver::SolveResult& result) {
  std::string text;
  json::Writer out(text);
  out.begin_object();
  out.key("engine").string(result.engine);
  out.key("initial_cost").number(result.initial_cost);
  out.key("best_cost").number(result.best_cost);
  out.key("best_quality").number(result.best_quality);

  write_objectives(out.key("best_objectives"), result.best_objectives);
  write_uints(out.key("best_slots"), result.best_slots);
  write_series(out.key("cost_trace"), result.cost_trace);
  write_series(out.key("best_trace"), result.best_trace);
  write_series(out.key("best_vs_time"), result.best_vs_time);
  write_series(out.key("best_vs_global"), result.best_vs_global);
  write_stats(out.key("stats"), result.stats);

  out.key("iterations").number(static_cast<double>(result.iterations));
  out.key("makespan").number(result.makespan);
  out.key("stop_reason").string(stop_reason_name(result.stop_reason));
  out.key("converged").boolean(result.converged);
  out.end_object();
  return text;
}

std::optional<solver::SolveResult> decode_result(std::string_view text,
                                                 std::string* error) {
  json::Document doc;
  if (!doc.parse(text, error)) return std::nullopt;
  std::string err;
  solver::SolveResult result;

  ObjectReader reader(doc.root(), "result", err);
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
  // the spec only pins the registry entry), and the deadline is written as
  // zero — it changes when a job is killed, never what it computes. The
  // spec writer emits members in one fixed order, so the text is canonical.
  std::string key = hex_u64(circuit_hash) + "|";
  json::Writer out(key);
  write_spec(out, job, 0.0);
  return key;
}

}  // namespace pts::service
