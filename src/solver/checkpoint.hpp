// Checkpoint/resume for the sequential tabu engine.
//
// solve_with_checkpoint() runs the exact "tabu" engine recipe (same setup,
// same RNG streams — a run whose stop conditions never fire is bit-identical
// to Solver::solve) and additionally captures a Checkpoint at the point the
// run stopped: the full engine state needed to continue the trajectory —
// slot permutation, the drift-carrying HPWL total and per-path wire sums,
// rebuild cadence, tabu list, long-term frequency memory, the search RNG
// stream (including the Marsaglia spare), best-so-far bookkeeping, and
// iteration counters — plus the partial traces accumulated so far.
//
// resume_from_checkpoint() rebuilds the engine over the same spec, restores
// that state, and finishes the run. The spliced result (traces, stats,
// best) is bit-identical to the uninterrupted same-seed run in every
// deterministic field; only wall-clock x values of best_vs_time and
// makespan differ, since those measure real time. Pinned by
// tests/solver_test.cpp and tests/property_test.cpp.
//
// Checkpoints serialize to JSON (encode/decode_checkpoint) for persistence
// across processes. u64 fields (seed, circuit hash, RNG state words) are
// hex strings because JSON numbers are doubles (exact only to 2^53);
// everything else uses the service JSON core's bit-exact double round-trip.
// encode_checkpoint() streams through the same writer as specs and results
// (service/json.hpp), and decode_checkpoint() validates the text once and
// reads it in place through service/schema.hpp's strict reader with every
// key required — no document tree on either side. It never aborts:
// malformed input returns an error string.
#pragma once

#include <cstdint>
#include <string>

#include "solver/solver.hpp"

namespace pts::solver {

struct Checkpoint {
  /// Only the sequential "tabu" engine is checkpointable.
  std::string engine = "tabu";
  std::uint64_t seed = 0;
  /// netlist::content_hash of the circuit the run was solving; resume
  /// refuses a checkpoint taken against different circuit content.
  std::uint64_t circuit_hash = 0;
  double initial_cost = 0.0;
  /// Engine seconds consumed before the checkpoint (offsets the resumed
  /// segment's best_vs_time x values and makespan).
  double elapsed_seconds = 0.0;

  cost::Evaluator::CheckpointState eval;
  tabu::TabuSearch::State search;

  /// Traces of the run up to the checkpoint; resume splices its own
  /// segment onto these.
  Series cost_trace;
  Series best_trace;
  Series best_vs_time;
};

struct CheckpointedSolve {
  SolveResult result;
  /// State at the moment the run returned — resumable if it stopped early,
  /// a no-op to resume if it completed.
  Checkpoint checkpoint;
};

/// Runs the "tabu" engine exactly as Solver::solve would (spec.engine must
/// be "tabu"; aborts on an invalid spec, like Solver::solve) and captures a
/// checkpoint at the stop point.
CheckpointedSolve solve_with_checkpoint(const SolveSpec& spec);

/// Empty string when `checkpoint` can resume under `spec` (same engine,
/// seed and circuit content, and state shaped for that circuit: slot
/// vectors that permute the movable cells, one wire sum per monitored
/// path, one frequency count per cell, tabu entries naming cells);
/// otherwise the reason.
std::string check_resume_compatible(const SolveSpec& spec,
                                    const Checkpoint& checkpoint);

/// Restores `checkpoint` and finishes the run under `spec` (which must
/// satisfy check_resume_compatible — aborts otherwise). The returned
/// result covers the WHOLE run: traces spliced, cumulative stats, the
/// original initial cost.
CheckpointedSolve resume_from_checkpoint(const SolveSpec& spec,
                                         const Checkpoint& checkpoint);

/// Compact JSON serialization of a checkpoint (bit-exact round-trip).
std::string encode_checkpoint(const Checkpoint& checkpoint);

/// Parses encode_checkpoint output. Returns an empty string and fills
/// `out` on success, or a description of the first problem (never aborts,
/// whatever the input).
std::string decode_checkpoint(const std::string& text, Checkpoint* out);

}  // namespace pts::solver
