#include "solver/checkpoint.hpp"

#include <utility>

#include "netlist/io.hpp"
#include "service/schema.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "timing/paths.hpp"

namespace pts::solver {
namespace {

namespace json = service::json;
using service::ObjectReader;

// ---------------------------------------------------------------------------
// Trace splicing.

Series splice(const Series& before, Series&& after, double x_offset = 0.0) {
  Series out;
  out.name = before.name.empty() ? after.name : before.name;
  out.x = before.x;
  out.y = before.y;
  out.x.reserve(out.x.size() + after.x.size());
  out.y.reserve(out.y.size() + after.y.size());
  for (double xv : after.x) out.x.push_back(xv + x_offset);
  out.y.insert(out.y.end(), after.y.begin(), after.y.end());
  return out;
}

// One code path for fresh and resumed runs keeps the recipes identical by
// construction: `from == nullptr` is a cold run (bit-identical to
// TabuEngine::solve), otherwise the engine state is restored before run().
CheckpointedSolve run_tabu_segment(const SolveSpec& spec, const Checkpoint* from) {
  auto setup = detail::make_sequential_setup(spec);
  tabu::TabuSearch search(*setup.eval, spec.tabu,
                          Rng(spec.seed ^ kSearchStreamSalt));

  double initial_cost = 0.0;
  double base_elapsed = 0.0;
  if (from != nullptr) {
    setup.eval->restore_checkpoint(from->eval);
    search.restore(from->search);
    initial_cost = from->initial_cost;
    base_elapsed = from->elapsed_seconds;
  } else {
    initial_cost = setup.eval->cost();
  }

  const Stopwatch watch;
  auto r = search.run(RunControl{spec.stop, spec.observer});
  const double segment_seconds = watch.seconds();

  CheckpointedSolve out;
  SolveResult& res = out.result;
  res.engine = "tabu";
  res.initial_cost = initial_cost;
  res.makespan = base_elapsed + segment_seconds;
  res.best_cost = r.best_cost;
  res.best_quality = r.best_quality;
  res.best_objectives = r.best_objectives;
  res.best_slots = std::move(r.best_slots);
  // stats_ is cumulative across restore (the checkpoint carries it), so the
  // segment's result.stats already covers the whole run.
  res.stats = r.stats;
  res.iterations = r.stats.iterations;
  res.stop_reason = r.stop_reason;
  if (from != nullptr) {
    // Iteration-indexed traces concatenate directly (the resumed loop
    // counts absolute iterations); the time trail shifts by the seconds the
    // interrupted run had already consumed.
    res.cost_trace = splice(from->cost_trace, std::move(r.cost_trace));
    res.best_trace = splice(from->best_trace, std::move(r.best_trace));
    res.best_vs_time =
        splice(from->best_vs_time, std::move(r.best_vs_time), base_elapsed);
  } else {
    res.cost_trace = std::move(r.cost_trace);
    res.best_trace = std::move(r.best_trace);
    res.best_vs_time = std::move(r.best_vs_time);
  }

  Checkpoint& ck = out.checkpoint;
  ck.engine = "tabu";
  ck.seed = spec.seed;
  ck.circuit_hash = netlist::content_hash(*spec.netlist);
  ck.initial_cost = initial_cost;
  ck.elapsed_seconds = res.makespan;
  ck.eval = setup.eval->checkpoint();
  ck.search = search.state();
  ck.cost_trace = res.cost_trace;
  ck.best_trace = res.best_trace;
  ck.best_vs_time = res.best_vs_time;
  return out;
}

}  // namespace

CheckpointedSolve solve_with_checkpoint(const SolveSpec& spec) {
  PTS_CHECK_MSG(spec.engine == "tabu",
                "solve_with_checkpoint supports only the 'tabu' engine");
  const auto errors = Solver().validate(spec);
  PTS_CHECK_MSG(errors.empty(), "invalid SolveSpec for solve_with_checkpoint");
  return run_tabu_segment(spec, nullptr);
}

std::string check_resume_compatible(const SolveSpec& spec,
                                    const Checkpoint& checkpoint) {
  if (spec.engine != "tabu") {
    return "resume requires engine 'tabu', spec has '" + spec.engine + "'";
  }
  if (checkpoint.engine != "tabu") {
    return "checkpoint was taken by engine '" + checkpoint.engine +
           "', only 'tabu' checkpoints resume";
  }
  if (spec.netlist == nullptr) return "spec.netlist is null";
  if (spec.seed != checkpoint.seed) {
    return "seed mismatch: spec " + std::to_string(spec.seed) + ", checkpoint " +
           std::to_string(checkpoint.seed);
  }
  const std::uint64_t hash = netlist::content_hash(*spec.netlist);
  if (hash != checkpoint.circuit_hash) {
    return "circuit content hash mismatch: the checkpoint was taken against "
           "different circuit content";
  }
  // Shapes the restore paths would otherwise abort on: a decoded
  // checkpoint is well-formed JSON, not necessarily consistent state.
  const netlist::Netlist& nl = *spec.netlist;
  std::string error =
      detail::slot_permutation_error(nl, checkpoint.eval.slots, "eval.slots");
  if (error.empty()) {
    error = detail::slot_permutation_error(nl, checkpoint.search.best_slots,
                                           "search.best_slots");
  }
  if (!error.empty()) return "checkpoint " + error;
  if (checkpoint.eval.wire_sums.size() !=
      timing::critical_path_count(nl, spec.cost.num_paths)) {
    return "checkpoint eval.wire_sums does not match the spec's path count";
  }
  const tabu::FrequencyMemory::State& frequency = checkpoint.search.frequency;
  if (frequency.counts.size() != nl.num_cells() ||
      frequency.improving_counts.size() != nl.num_cells()) {
    return "checkpoint frequency vectors do not match the netlist's cell "
           "count";
  }
  for (const tabu::Move& move : checkpoint.search.tabu_entries) {
    if (move.a >= nl.num_cells() || move.b >= nl.num_cells()) {
      return "checkpoint tabu entry names a cell outside the netlist";
    }
  }
  return {};
}

CheckpointedSolve resume_from_checkpoint(const SolveSpec& spec,
                                         const Checkpoint& checkpoint) {
  const std::string incompatible = check_resume_compatible(spec, checkpoint);
  PTS_CHECK_MSG(incompatible.empty(), incompatible.c_str());
  const auto errors = Solver().validate(spec);
  PTS_CHECK_MSG(errors.empty(), "invalid SolveSpec for resume_from_checkpoint");
  return run_tabu_segment(spec, &checkpoint);
}

std::string encode_checkpoint(const Checkpoint& ck) {
  json::Value root = json::Value::object();
  root.set("version", json::Value(1.0));
  root.set("engine", json::Value(ck.engine));
  root.set("seed", json::Value(service::hex_u64(ck.seed)));
  root.set("circuit_hash", json::Value(service::hex_u64(ck.circuit_hash)));
  root.set("initial_cost", json::Value(ck.initial_cost));
  root.set("elapsed_seconds", json::Value(ck.elapsed_seconds));

  json::Value eval = json::Value::object();
  eval.set("slots", service::uints_to_json(ck.eval.slots));
  eval.set("hpwl_total", json::Value(ck.eval.hpwl_total));
  eval.set("wire_sums", service::doubles_to_json(ck.eval.wire_sums));
  eval.set("swaps_applied",
           json::Value(static_cast<double>(ck.eval.swaps_applied)));
  eval.set("swaps_since_rebuild",
           json::Value(static_cast<double>(ck.eval.swaps_since_rebuild)));
  root.set("eval", std::move(eval));

  json::Value search = json::Value::object();
  json::Value rng = json::Value::object();
  json::Value words = json::Value::array();
  for (std::uint64_t w : ck.search.rng.s) {
    words.push_back(json::Value(service::hex_u64(w)));
  }
  rng.set("s", std::move(words));
  rng.set("spare", json::Value(ck.search.rng.spare));
  rng.set("has_spare", json::Value(ck.search.rng.has_spare));
  search.set("rng", std::move(rng));
  json::Value entries = json::Value::array();
  for (const tabu::Move& m : ck.search.tabu_entries) {
    json::Value pair = json::Value::array();
    pair.push_back(json::Value(static_cast<double>(m.a)));
    pair.push_back(json::Value(static_cast<double>(m.b)));
    entries.push_back(std::move(pair));
  }
  search.set("tabu_entries", std::move(entries));
  json::Value freq = json::Value::object();
  freq.set("counts", service::uints_to_json(ck.search.frequency.counts));
  freq.set("improving_counts",
           service::uints_to_json(ck.search.frequency.improving_counts));
  freq.set("transitions",
           json::Value(static_cast<double>(ck.search.frequency.transitions)));
  freq.set("max_count",
           json::Value(static_cast<double>(ck.search.frequency.max_count)));
  freq.set("max_improving",
           json::Value(static_cast<double>(ck.search.frequency.max_improving)));
  search.set("frequency", std::move(freq));
  search.set("best_cost", json::Value(ck.search.best_cost));
  search.set("best_quality", json::Value(ck.search.best_quality));
  search.set("best_objectives",
             service::objectives_to_json(ck.search.best_objectives));
  search.set("best_slots", service::uints_to_json(ck.search.best_slots));
  search.set("stats", service::stats_to_json(ck.search.stats));
  root.set("search", std::move(search));

  root.set("cost_trace", service::series_to_json(ck.cost_trace));
  root.set("best_trace", service::series_to_json(ck.best_trace));
  root.set("best_vs_time", service::series_to_json(ck.best_vs_time));
  return json::dump(root);
}

std::string decode_checkpoint(const std::string& text, Checkpoint* out) {
  PTS_CHECK(out != nullptr);
  std::string parse_error;
  const auto root = json::parse(text, &parse_error);
  if (!root.has_value()) return "checkpoint: invalid JSON: " + parse_error;

  // Every key is required: a checkpoint is only resumable whole.
  std::string err;
  Checkpoint ck;
  ObjectReader reader(*root, "checkpoint", err, ObjectReader::Keys::Required);
  std::uint64_t version = 0;
  reader.read_uint("version", version);
  if (version != 1) reader.fail("unsupported version");
  reader.read_string("engine", ck.engine);
  if (ck.engine != "tabu") reader.fail("engine must be 'tabu'");
  reader.read_hex_u64("seed", ck.seed);
  reader.read_hex_u64("circuit_hash", ck.circuit_hash);
  reader.read_double("initial_cost", ck.initial_cost);
  reader.read_double("elapsed_seconds", ck.elapsed_seconds);

  if (auto eval = reader.read_object("eval")) {
    eval->read_uints("slots", ck.eval.slots);
    eval->read_double("hpwl_total", ck.eval.hpwl_total);
    eval->read_doubles("wire_sums", ck.eval.wire_sums);
    eval->read_uint("swaps_applied", ck.eval.swaps_applied);
    eval->read_uint("swaps_since_rebuild", ck.eval.swaps_since_rebuild);
    eval->finish();
  }

  if (auto search = reader.read_object("search")) {
    if (auto rng = search->read_object("rng")) {
      rng->read_hex_u64s("s", ck.search.rng.s);
      rng->read_double("spare", ck.search.rng.spare);
      rng->read_bool("has_spare", ck.search.rng.has_spare);
      rng->finish();
    }
    if (const json::Value* entries = search->read_array("tabu_entries")) {
      constexpr auto kMaxCell = ObjectReader::max_of<netlist::CellId>();
      for (const json::Value& pair : entries->items()) {
        std::uint64_t a = 0, b = 0;
        if (!pair.is_array() || pair.items().size() != 2 ||
            !ObjectReader::uint_value(pair.items()[0], kMaxCell, a) ||
            !ObjectReader::uint_value(pair.items()[1], kMaxCell, b)) {
          search->fail("tabu_entries must hold [a, b] cell-id pairs");
          break;
        }
        ck.search.tabu_entries.push_back(tabu::Move{
            static_cast<netlist::CellId>(a), static_cast<netlist::CellId>(b)});
      }
    }
    if (auto freq = search->read_object("frequency")) {
      freq->read_uints("counts", ck.search.frequency.counts);
      freq->read_uints("improving_counts", ck.search.frequency.improving_counts);
      freq->read_uint("transitions", ck.search.frequency.transitions);
      freq->read_uint("max_count", ck.search.frequency.max_count);
      freq->read_uint("max_improving", ck.search.frequency.max_improving);
      freq->finish();
    }
    search->read_double("best_cost", ck.search.best_cost);
    search->read_double("best_quality", ck.search.best_quality);
    service::read_objectives(*search, "best_objectives",
                             ck.search.best_objectives);
    search->read_uints("best_slots", ck.search.best_slots);
    service::read_stats(*search, "stats", ck.search.stats);
    search->finish();
  }

  service::read_series(reader, "cost_trace", ck.cost_trace);
  service::read_series(reader, "best_trace", ck.best_trace);
  service::read_series(reader, "best_vs_time", ck.best_vs_time);
  reader.finish();
  if (!err.empty()) return err;

  *out = std::move(ck);
  return {};
}

}  // namespace pts::solver
