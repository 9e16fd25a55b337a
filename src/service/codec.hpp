// JSON (de)serialization of solve jobs and results, shared by the ptsd
// daemon and the pts_client CLI so both sides agree on one schema.
//
// A job crosses the wire as a JobRequest: a benchmark circuit *name* plus a
// SolveSpec with the non-serializable fields left empty (the daemon resolves
// the name against the benchmark registry and attaches its own CancelToken /
// Observer). Decoding goes through the strict reader of service/schema.hpp,
// the same one checkpoints use: unknown keys, wrong types, non-finite
// numbers and integers that are fractional, negative, above 2^53 or above
// their field's type are errors, never silently ignored — the daemon must
// not accept a spec it half-understood. The first error wins and names its
// dotted path ("spec.tabu.compound: unknown key 'batch'"). Spec and result
// keys are optional (absent means default), except that a spec requires
// `circuit`. Coverage: engine, circuit, seed, warm-start slots, the serving
// deadline (deadline_seconds), and the cost / tabu (incl. compound) /
// anneal / local / parallel (incl. diversify) / shared / stop blocks. The
// probe batch width is a kernel constant (cost::kProbeBatchWidth), not a
// spec member. The parallel cluster, collection policies, and sim cost
// model keep their defaults (they shape the emulation experiments, not a
// served solve; extend the schema here if that changes).
//
// Encoding streams each document straight into its output string with the
// writer of service/json.hpp; decoding validates the text once and reads it
// in place (service/schema.hpp). No document tree is built on either side.
// The bytes are those of the tree-based codec this replaced, member for
// member (tests/wire_corpus_test.cpp pins them). Doubles round-trip
// bit-exactly, so decode(encode(result)) == result field-for-field — the
// property behind the daemon-vs-direct bit-identity guarantee
// (tests/service_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "solver/solver.hpp"

namespace pts::service {

/// A solve job as submitted by a client. `spec.netlist` and
/// `spec.stop.cancel` / `spec.observer` stay null — the daemon fills them.
struct JobRequest {
  std::string circuit;
  solver::SolveSpec spec;
  /// Serving-layer wall-clock deadline in seconds (queue wait + solve).
  /// <= 0: use the daemon's default. An overdue session is cancelled and
  /// finishes with stop_reason == DeadlineExpired.
  double deadline_seconds = 0.0;
};

/// True when the job's result is a pure function of the spec — no
/// wall-clock stop condition and a deterministic engine — and therefore
/// eligible for the daemon's result cache (ECO mode).
bool spec_cacheable(const JobRequest& job);

/// Canonical cache key for a cacheable job: the circuit's content hash
/// (netlist::content_hash — the name alone would go stale if the registry
/// entry changed) joined with the canonicalized spec JSON, deadline zeroed
/// (a deadline changes when a job fails, not what it computes).
std::string cache_key(const JobRequest& job, std::uint64_t circuit_hash);

std::string encode_spec(const JobRequest& job);
std::optional<JobRequest> decode_spec(std::string_view text, std::string* error);
std::string encode_result(const solver::SolveResult& result);
std::optional<solver::SolveResult> decode_result(std::string_view text,
                                                 std::string* error);

}  // namespace pts::service
