// ptsd — the placement-as-a-service daemon.
//
// A Daemon owns one listening socket (Unix-domain path or loopback TCP), an
// accept thread, one reader thread per client connection, and a process-wide
// SessionManager multiplexing concurrent solves. Requests and streamed
// events use the framed protocol in service/proto.hpp; job specs and
// results cross as JSON (service/codec.hpp).
//
// Hardening contract (tests/service_test.cpp pins each):
//  - framing violations (bad magic, zero-length/oversized payloads) drop
//    the connection — a stream that lied about its framing is untrusted;
//  - schema violations inside a well-framed payload (unknown tag, wrong
//    field order, bad JSON, unknown circuit/engine) answer kError or
//    kSubmitErr and the connection survives;
//  - a mid-solve disconnect cancels and joins exactly that connection's
//    sessions before the connection is torn down (queued sessions of the
//    connection are discarded);
//  - admission control: submissions beyond max_sessions join a bounded
//    FIFO queue (kSubmitOk carries `queued`); beyond max_queued they get
//    kSubmitErr "queue full". Sessions overrunning their wall-clock
//    deadline are cancelled and finish with stop_reason deadline-expired;
//  - stop() drains gracefully: stop accepting, cancel every session, join
//    every thread — afterwards active_sessions() == 0 (no leaked sessions),
//    which is what the SIGTERM path in the ptsd binary relies on.
//
// Signal integration: request_stop() is async-signal-safe (one write to a
// self-pipe); a SIGTERM handler calls it and the thread blocked in
// wait_for_stop_request() — typically main() — performs the actual stop().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "pvm/message.hpp"
#include "service/proto.hpp"
#include "service/session.hpp"

namespace pts::service {

struct DaemonConfig {
  /// Unix-domain listener path (created on start, unlinked on stop).
  /// Empty: no Unix listener.
  std::string unix_path;
  /// Loopback TCP listener; port 0 binds an ephemeral port (read it back
  /// via Daemon::tcp_port after start).
  bool tcp = false;
  std::uint16_t tcp_port = 0;

  std::size_t max_sessions = 256;
  /// Bounded FIFO admission queue behind the running cap; submissions
  /// beyond max_sessions + max_queued get kSubmitErr ("queue full").
  std::size_t max_queued = 64;
  /// Default wall-clock deadline (queue wait + solve) applied to jobs that
  /// do not carry their own deadline_seconds; <= 0 = none. An overdue
  /// session is cancelled and reports stop_reason == deadline-expired.
  double session_deadline_seconds = 0.0;
  /// Bounded LRU result cache (ECO mode): a resubmission of a cacheable
  /// job (codec spec_cacheable) whose result is remembered gets
  /// kSubmitOk{cached} + kDone carrying the stored encoded result, without
  /// running a session or encoding anything. 0 disables caching.
  std::size_t cache_entries = 0;
  std::size_t max_payload = 64u << 20;
  std::string server_name = "ptsd";
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();  // stop()

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the configured listeners and spawns the accept thread. False
  /// with a reason on bind/listen failure. Call at most once.
  bool start(std::string* error);

  /// Graceful drain; idempotent; safe from any thread except a daemon
  /// callback thread (readers/sessions — those use request_stop()).
  void stop();

  /// Async-signal-safe stop trigger; wakes wait_for_stop_request().
  void request_stop();

  /// Blocks until request_stop() (or stop()) is called.
  void wait_for_stop_request();

  /// Resolved TCP port (after start, when config.tcp).
  std::uint16_t tcp_port() const { return resolved_tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  std::size_t active_sessions() const;
  std::size_t queued_sessions() const;
  std::uint64_t sessions_started() const;
  std::uint64_t sessions_finished() const;
  std::uint64_t connections_accepted() const;
  /// Result-cache counters. A submission that is not cacheable at all
  /// (codec spec_cacheable false, or caching disabled) counts as neither.
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  std::size_t cache_size() const;
  /// Payload bytes the result cache holds (SessionManager::cache_bytes).
  std::size_t cache_bytes() const;

 private:
  struct Impl;
  struct Connection;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& connection);
  /// False: tear the connection down (framing-level trust violation).
  bool handle_frame(Connection& connection, pvm::Message& msg);
  void handle_submit(Connection& connection, const SubmitMsg& submit);

  DaemonConfig config_;
  std::uint16_t resolved_tcp_port_ = 0;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pts::service
