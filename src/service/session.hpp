// Concurrent solve sessions over the pts::solver front door.
//
// A SessionManager runs N solves at once, each on its own thread with a
// per-session CancelToken and an Observer that forwards progress into a
// caller-supplied EventSink. Submissions beyond the running cap land in a
// bounded FIFO queue and are promoted as slots free up; beyond the queue
// bound, start() reports QueueFull. The daemon builds one manager for the
// process; each client connection owns the sessions it submitted (`owner`),
// so a mid-solve disconnect cancels exactly that client's work.
//
// Deadlines: a session may carry a wall-clock deadline covering queue wait
// plus solve time. A watchdog thread cancels overdue sessions cooperatively;
// a solve that was still running (or still queued) when its deadline hit
// finishes with stop_reason == DeadlineExpired instead of Cancelled, so
// clients can tell "you ran out of time" from "you asked me to stop".
//
// Threading contract:
//  - start()/cancel()/cancel_owned()/drain()/counters are thread-safe.
//  - The sink runs on the session's solve thread: any number of Progress
//    events while the engine runs, then exactly one Done event carrying the
//    SolveResult and its encoded payload — also when the session was
//    cancelled (the result then has stop_reason == Cancelled or
//    DeadlineExpired). A *queued* session fires
//    its Done the same way once promoted (an expired queued session is
//    promoted just to emit its DeadlineExpired Done). Sinks synchronize
//    their own downstream (the daemon serializes socket writes per
//    connection).
//  - cancel_owned()/drain() cancel cooperatively and then *join*: on return
//    no sink of the affected sessions can fire again and their threads are
//    gone — this is the "zero leaked sessions after drain" guarantee.
//    Queued sessions of the affected owner are discarded without a Done
//    (their connection is gone; nobody is listening).
//
// Finished sessions are reaped (joined and erased) opportunistically from
// the next mutating call, so a long-lived daemon does not accumulate dead
// threads; drain() reaps everything.
//
// Encode once: the session thread encodes its result exactly once
// (codec encode_result) into a Payload — an immutable, exact-size buffer.
// The Done event carries it next to the result, and the result cache keeps
// the very same buffer, so a cache hit is a lookup plus one frame write
// with nothing encoded again. The cache holds these bytes only (no
// SolveResult beside them); cache_bytes() is their exact total.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "solver/solver.hpp"
#include "support/run_control.hpp"

namespace pts::service {

/// A finished result as its encoded Done payload (codec encode_result),
/// shared by the result cache and every frame that sends it.
using Payload = std::shared_ptr<const std::string>;

/// Wraps encoded text in a Payload whose buffer holds exactly its bytes
/// (string growth would otherwise leave up to twice the size allocated for
/// as long as the cache keeps the entry).
Payload make_payload(std::string text);

struct SessionEvent {
  enum class Kind { Progress, Done };
  Kind kind = Kind::Progress;
  std::uint64_t session = 0;
  // Kind::Progress
  bool improvement = false;
  Progress progress;
  // Kind::Done
  solver::SolveResult result;
  /// encode_result(result), encoded once on the session thread.
  Payload payload;
};

using EventSink = std::function<void(SessionEvent&&)>;

class SessionManager {
 public:
  struct Options {
    /// Running (unfinished) session cap; submissions beyond it queue.
    std::size_t max_sessions = 256;
    /// Bounded FIFO admission queue; submissions beyond it are rejected
    /// with StartStatus::QueueFull. 0 disables queueing entirely.
    std::size_t max_queued = 64;
    /// Bounded LRU result cache (ECO mode): completed deterministic solves
    /// are remembered, as their encoded payload, under their
    /// caller-supplied cache key, and cached_result() serves repeat
    /// queries bit-identically without starting a session. 0 disables
    /// caching.
    std::size_t cache_entries = 0;
  };

  enum class StartStatus {
    Started,       ///< running; id is valid
    Queued,        ///< admitted to the FIFO queue; id is valid
    QueueFull,     ///< running cap and queue are both full
    ShuttingDown,  ///< drain() happened; no new work
  };
  static const char* start_status_name(StartStatus status);

  struct StartResult {
    StartStatus status = StartStatus::Started;
    std::uint64_t id = 0;  ///< valid when accepted(); 0 otherwise
    bool accepted() const {
      return status == StartStatus::Started || status == StartStatus::Queued;
    }
  };

  SessionManager() : SessionManager(Options()) {}
  explicit SessionManager(Options options);
  ~SessionManager();  // drains

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Starts (or queues) a solve session. `spec` must have passed
  /// Solver::validate with its netlist attached (the referenced netlist
  /// must outlive the manager); spec.stop.cancel and spec.observer are
  /// overwritten with the session's own. `deadline_seconds` > 0 arms a
  /// wall-clock deadline spanning queue wait + solve (clamped to ~31
  /// years so a huge value cannot overflow the steady_clock arithmetic).
  /// A non-empty `cache_key` makes the session's result eligible for the
  /// LRU cache: it is inserted when the solve finishes with a
  /// deterministic stop reason (Completed / IterationBudget / TargetCost /
  /// TargetQuality — never Cancelled, DeadlineExpired, or TimeLimit,
  /// which depend on wall-clock timing). Callers must only pass a key for
  /// specs whose result is a pure function of the key (see
  /// codec spec_cacheable()).
  StartResult start(solver::SolveSpec spec, std::uint64_t owner, bool stream,
                    std::uint64_t progress_stride, EventSink sink,
                    double deadline_seconds = 0.0, std::string cache_key = {});

  /// Cache lookup: returns the remembered payload for `key` (shared, not
  /// copied) and refreshes its LRU position, or nullopt. Counts one hit or
  /// miss.
  std::optional<Payload> cached_result(const std::string& key);

  /// Requests cooperative cancellation (running or queued). True if the
  /// session exists and had not finished; the Done event still arrives (on
  /// the session thread, after promotion for queued sessions).
  bool cancel(std::uint64_t session);

  /// Cancels and joins every running session started with this owner, and
  /// discards the owner's queued sessions. On return none of their sinks
  /// can fire again.
  void cancel_owned(std::uint64_t owner);

  /// Cancels and joins everything, discards the queue, and rejects starts
  /// from now on.
  void drain();

  /// Sessions started but not yet finished (their threads may still be
  /// seconds away from the next cancellation check point).
  std::size_t active_sessions() const;
  /// Sessions admitted but still waiting for a running slot.
  std::size_t queued_sessions() const;
  std::uint64_t sessions_started() const;
  std::uint64_t sessions_finished() const;
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  std::size_t cache_size() const;
  /// Payload bytes the cache holds: the sum of its entries' encode_result
  /// sizes.
  std::size_t cache_bytes() const;

 private:
  struct Session;

  void run_session(Session* session);
  /// Moves finished sessions into `out`; the caller joins their threads
  /// after releasing mutex_. Caller holds mutex_.
  void reap_locked(std::vector<std::unique_ptr<Session>>& out);
  /// Moves queued sessions into free running slots. Caller holds mutex_.
  void promote_locked();
  /// Running (unfinished) sessions. Caller holds mutex_.
  std::size_t running_locked() const;
  void watchdog_loop();
  /// Inserts (or refreshes) a cache entry and evicts past the bound.
  /// Caller holds mutex_.
  void cache_insert_locked(std::string key, Payload payload);

  Options options_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< running (+ reapable)
  std::deque<std::unique_ptr<Session>> queue_;      ///< admitted, waiting
  std::uint64_t next_id_ = 1;
  std::uint64_t started_ = 0;
  std::uint64_t finished_count_ = 0;
  bool draining_ = false;

  /// LRU result cache: most-recently-used at the front; the map points into
  /// the list. Guarded by mutex_ (shared with the session threads' final
  /// bookkeeping, where insertions happen).
  std::list<std::pair<std::string, Payload>> cache_lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, Payload>>::iterator>
      cache_map_;
  std::size_t cache_bytes_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;

  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

}  // namespace pts::service
