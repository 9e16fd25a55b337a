// The ptsd wire protocol: typed request/response messages over pvm framing.
//
// Transport stack (bottom up): a byte stream (Unix-domain or TCP socket) ·
// length-prefixed frames (pvm/frame.hpp) · one pvm::Message per frame whose
// tag selects the message type below · pack_*/unpack_* fields in fixed
// order. Job specs and results ride inside kSubmit/kDone as JSON strings
// (service/codec.hpp), so the structured payloads have one schema shared
// with the pts_client CLI while the envelope stays binary and cheap.
//
// Conversation shape:
//
//   client                          daemon
//   ------ kHello{version} ------->
//   <----- kWelcome{version, name, engines, circuits}
//   ------ kSubmit{spec_json, stream, stride, request_id} ->
//   <----- kSubmitOk{session, queued} | kSubmitErr{error}
//   <----- kProgress{session, ...}        (pushed while solving, if stream)
//   <----- kDone{session, result_json}    (exactly once per session)
//   ------ kCancel{session} ------>
//   <----- kCancelOk{session, was_active}
//   ------ kShutdown -------------->
//   <----- kShutdownOk              (then the daemon drains and closes)
//
// Decoding is hardened for untrusted bytes: every decode_* first checks
// Message::validate_layout, then gates each unpack on peek_field, and
// finally requires the payload to be fully consumed — a malformed payload
// returns false instead of aborting the daemon. Framing violations (bad
// magic, oversized/zero-length payloads) are detected one layer down and
// terminate the connection; payload-schema violations are answered with
// kError and the connection survives.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pvm/message.hpp"

namespace pts::service {

inline constexpr std::uint32_t kProtocolVersion = 1;

enum Tag : int {
  kHello = 1,
  kWelcome = 2,
  kSubmit = 3,
  kSubmitOk = 4,
  kSubmitErr = 5,
  kCancel = 6,
  kCancelOk = 7,
  kProgress = 8,
  kDone = 9,
  kShutdown = 10,
  kShutdownOk = 11,
  kError = 12,
};

const char* tag_name(int tag);

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
};

struct WelcomeMsg {
  std::uint32_t version = kProtocolVersion;
  std::string server;
  std::vector<std::string> engines;   ///< solver::engine_names(), stable order
  std::vector<std::string> circuits;  ///< servable benchmark names
};

struct SubmitMsg {
  std::string spec_json;  ///< codec::encode_spec of the JobRequest
  bool stream = false;    ///< push kProgress events while solving
  /// Stream every Nth on_iteration callback (improvements always stream);
  /// 0 = improvements only.
  std::uint64_t progress_stride = 0;
  /// Client-chosen id, stable across reconnect retries of the same job —
  /// the daemon logs it so a chaos run's duplicate submissions can be
  /// correlated. Retries are idempotent by construction (same-seed solves
  /// are bit-identical and a lost connection cancels its sessions), so the
  /// daemon does not dedupe on it. 0 = unset.
  std::uint64_t request_id = 0;
};

struct SubmitOkMsg {
  std::uint64_t session = 0;
  /// True: admitted to the bounded FIFO queue, not yet running; kProgress /
  /// kDone arrive as usual once a slot frees up.
  bool queued = false;
  /// True: the daemon served this submission from its result cache (ECO
  /// mode) — no solver ran; `session` is 0 (there is nothing to cancel)
  /// and the kDone (also session 0) with the bit-identical remembered
  /// result follows immediately; no kProgress will ever arrive.
  bool cached = false;
};

struct SubmitErrMsg {
  std::string error;
};

struct CancelMsg {
  std::uint64_t session = 0;
};

struct CancelOkMsg {
  std::uint64_t session = 0;
  bool was_active = false;  ///< false: unknown id or already finished
};

struct ProgressMsg {
  std::uint64_t session = 0;
  bool improvement = false;  ///< true: new best adopted; false: stride tick
  std::uint64_t iteration = 0;
  double seconds = 0.0;
  double current_cost = 0.0;
  double best_cost = 0.0;
};

struct DoneMsg {
  std::uint64_t session = 0;
  std::string result_json;  ///< codec::encode_result of the SolveResult
};

struct ErrorMsg {
  std::string message;
};

// Encoders (infallible: the structs always fit the schema).
pvm::Message encode(const HelloMsg& msg);
pvm::Message encode(const WelcomeMsg& msg);
pvm::Message encode(const SubmitMsg& msg);
pvm::Message encode(const SubmitOkMsg& msg);
pvm::Message encode(const SubmitErrMsg& msg);
pvm::Message encode(const CancelMsg& msg);
pvm::Message encode(const CancelOkMsg& msg);
pvm::Message encode(const ProgressMsg& msg);
pvm::Message encode(const DoneMsg& msg);
/// The kDone message for an already-encoded result, without first copying
/// the text into a DoneMsg (the daemon sends cached payloads this way).
pvm::Message encode_done(std::uint64_t session, std::string_view result_json);
pvm::Message encode(const ErrorMsg& msg);
pvm::Message encode_shutdown();
pvm::Message encode_shutdown_ok();

// Hardened decoders: false on tag mismatch, layout violations, schema
// mismatch, or trailing bytes. The message read cursor is consumed.
bool decode(pvm::Message& msg, HelloMsg& out);
bool decode(pvm::Message& msg, WelcomeMsg& out);
bool decode(pvm::Message& msg, SubmitMsg& out);
bool decode(pvm::Message& msg, SubmitOkMsg& out);
bool decode(pvm::Message& msg, SubmitErrMsg& out);
bool decode(pvm::Message& msg, CancelMsg& out);
bool decode(pvm::Message& msg, CancelOkMsg& out);
bool decode(pvm::Message& msg, ProgressMsg& out);
bool decode(pvm::Message& msg, DoneMsg& out);
bool decode(pvm::Message& msg, ErrorMsg& out);
bool decode_shutdown(pvm::Message& msg);
bool decode_shutdown_ok(pvm::Message& msg);

}  // namespace pts::service
