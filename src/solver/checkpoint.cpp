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
using service::write_uints;

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
  // stats_ is cumulative across restore (the checkpoint carries it), so the
  // segment's result.stats already covers the whole run.
  detail::map_search_result(res, std::move(r));
  res.engine = "tabu";
  res.initial_cost = initial_cost;
  res.makespan = base_elapsed + segment_seconds;
  if (from != nullptr) {
    // Iteration-indexed traces concatenate directly (the resumed loop
    // counts absolute iterations); the time trail shifts by the seconds the
    // interrupted run had already consumed.
    res.cost_trace = splice(from->cost_trace, std::move(res.cost_trace));
    res.best_trace = splice(from->best_trace, std::move(res.best_trace));
    res.best_vs_time =
        splice(from->best_vs_time, std::move(res.best_vs_time), base_elapsed);
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
  std::string text;
  json::Writer out(text);
  out.begin_object();
  out.key("version").number(1.0);
  out.key("engine").string(ck.engine);
  out.key("seed").string(service::hex_u64(ck.seed));
  out.key("circuit_hash").string(service::hex_u64(ck.circuit_hash));
  out.key("initial_cost").number(ck.initial_cost);
  out.key("elapsed_seconds").number(ck.elapsed_seconds);

  out.key("eval").begin_object();
  write_uints(out.key("slots"), ck.eval.slots);
  out.key("hpwl_total").number(ck.eval.hpwl_total);
  out.key("wire_sums").numbers(ck.eval.wire_sums);
  out.key("swaps_applied").number(static_cast<double>(ck.eval.swaps_applied));
  out.key("swaps_since_rebuild")
      .number(static_cast<double>(ck.eval.swaps_since_rebuild));
  out.end_object();

  out.key("search").begin_object();
  out.key("rng").begin_object();
  out.key("s").begin_array();
  for (const std::uint64_t w : ck.search.rng.s) out.string(service::hex_u64(w));
  out.end_array();
  out.key("spare").number(ck.search.rng.spare);
  out.key("has_spare").boolean(ck.search.rng.has_spare);
  out.end_object();
  out.key("tabu_entries").begin_array();
  for (const tabu::Move& m : ck.search.tabu_entries) {
    out.begin_array();
    out.number(static_cast<double>(m.a));
    out.number(static_cast<double>(m.b));
    out.end_array();
  }
  out.end_array();
  const tabu::FrequencyMemory::State& freq = ck.search.frequency;
  out.key("frequency").begin_object();
  write_uints(out.key("counts"), freq.counts);
  write_uints(out.key("improving_counts"), freq.improving_counts);
  out.key("transitions").number(static_cast<double>(freq.transitions));
  out.key("max_count").number(static_cast<double>(freq.max_count));
  out.key("max_improving").number(static_cast<double>(freq.max_improving));
  out.end_object();
  out.key("best_cost").number(ck.search.best_cost);
  out.key("best_quality").number(ck.search.best_quality);
  service::write_objectives(out.key("best_objectives"),
                            ck.search.best_objectives);
  write_uints(out.key("best_slots"), ck.search.best_slots);
  service::write_stats(out.key("stats"), ck.search.stats);
  out.end_object();

  service::write_series(out.key("cost_trace"), ck.cost_trace);
  service::write_series(out.key("best_trace"), ck.best_trace);
  service::write_series(out.key("best_vs_time"), ck.best_vs_time);
  out.end_object();
  return text;
}

std::string decode_checkpoint(const std::string& text, Checkpoint* out) {
  PTS_CHECK(out != nullptr);
  std::string parse_error;
  json::Document doc;
  if (!doc.parse(text, &parse_error)) {
    return "checkpoint: invalid JSON: " + parse_error;
  }

  // Every key is required: a checkpoint is only resumable whole.
  std::string err;
  Checkpoint ck;
  ObjectReader reader(doc.root(), "checkpoint", err,
                      ObjectReader::Keys::Required);
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
    if (const auto entries = search->read_array("tabu_entries")) {
      constexpr auto kMaxCell = ObjectReader::max_of<netlist::CellId>();
      entries->for_each_item([&](const json::Node& pair) {
        std::uint64_t ids[2] = {0, 0};
        std::size_t count = 0;
        bool valid = pair.kind() == json::Kind::Array;
        if (valid) {
          pair.for_each_item([&](const json::Node& id) {
            valid = count < 2 && ObjectReader::uint_value(id, kMaxCell, ids[count]);
            ++count;
            return valid;
          });
        }
        if (!valid || count != 2) {
          search->fail("tabu_entries must hold [a, b] cell-id pairs");
          return false;
        }
        ck.search.tabu_entries.push_back(
            tabu::Move{static_cast<netlist::CellId>(ids[0]),
                       static_cast<netlist::CellId>(ids[1])});
        return true;
      });
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
