#include "service/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <utility>

#include "service/codec.hpp"

namespace pts::service {

using Clock = std::chrono::steady_clock;

struct SessionManager::Session {
  std::uint64_t id = 0;
  std::uint64_t owner = 0;
  bool stream = false;
  std::uint64_t progress_stride = 0;
  CancelToken token;
  EventSink sink;
  solver::SolveSpec spec;
  /// Non-empty: the finished result is LRU-cached under this key when the
  /// stop reason is deterministic.
  std::string cache_key;
  std::thread thread;
  bool has_deadline = false;
  Clock::time_point deadline{};
  /// Set by the watchdog when the deadline fires; read on the session
  /// thread to rewrite Cancelled into DeadlineExpired.
  std::atomic<bool> deadline_hit{false};
  /// Set (release) as the session thread's last touch of this struct; the
  /// reaper reads it (acquire) and may join + destroy immediately after.
  std::atomic<bool> finished{false};
};

namespace {

/// Forwards engine progress into the session sink. Runs on the solve
/// thread (Observer contract: callbacks are synchronous and read-only
/// towards the engine).
class StreamObserver final : public Observer {
 public:
  StreamObserver(std::uint64_t session, bool stream, std::uint64_t stride,
                 const EventSink& sink)
      : session_(session), stream_(stream), stride_(stride), sink_(sink) {}

  void on_improvement(const Progress& progress) override {
    if (!stream_) return;
    emit(true, progress);
  }

  void on_iteration(const Progress& progress) override {
    if (!stream_ || stride_ == 0) return;
    if (++ticks_ % stride_ != 0) return;
    emit(false, progress);
  }

 private:
  void emit(bool improvement, const Progress& progress) {
    SessionEvent event;
    event.kind = SessionEvent::Kind::Progress;
    event.session = session_;
    event.improvement = improvement;
    event.progress = progress;
    sink_(std::move(event));
  }

  std::uint64_t session_;
  bool stream_;
  std::uint64_t stride_;
  const EventSink& sink_;
  std::uint64_t ticks_ = 0;
};

}  // namespace

Payload make_payload(std::string text) {
  text.shrink_to_fit();
  return std::make_shared<const std::string>(std::move(text));
}

const char* SessionManager::start_status_name(StartStatus status) {
  switch (status) {
    case StartStatus::Started: return "started";
    case StartStatus::Queued: return "queued";
    case StartStatus::QueueFull: return "queue-full";
    case StartStatus::ShuttingDown: return "shutting-down";
  }
  return "unknown";
}

SessionManager::SessionManager(Options options) : options_(options) {
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

SessionManager::~SessionManager() {
  drain();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

std::size_t SessionManager::running_locked() const {
  std::size_t running = 0;
  for (const auto& s : sessions_) {
    if (!s->finished.load(std::memory_order_acquire)) ++running;
  }
  return running;
}

SessionManager::StartResult SessionManager::start(
    solver::SolveSpec spec, std::uint64_t owner, bool stream,
    std::uint64_t progress_stride, EventSink sink, double deadline_seconds,
    std::string cache_key) {
  auto session = std::make_unique<Session>();
  session->owner = owner;
  session->stream = stream;
  session->progress_stride = progress_stride;
  session->sink = std::move(sink);
  session->spec = std::move(spec);
  session->spec.stop.cancel = &session->token;
  if (options_.cache_entries > 0) session->cache_key = std::move(cache_key);
  const bool has_deadline = deadline_seconds > 0.0;
  if (has_deadline) {
    // Clamp before the duration_cast: steady_clock durations are int64
    // nanoseconds, so ~9.2e9 unclamped seconds would overflow into a
    // deadline in the past and instantly expire the session.
    const double capped = std::min(deadline_seconds, 1.0e9);
    session->has_deadline = true;
    session->deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(capped));
  }

  // Publication and spawn happen under one lock so every joiner (reap,
  // cancel_owned, drain — all of which lock mutex_ before extracting a
  // session) observes the thread member already assigned; a session can
  // never be destroyed with its thread running. run_session only takes
  // mutex_ at its very end, so spawning under the lock cannot deadlock.
  StartResult result;
  std::vector<std::unique_ptr<Session>> reaped;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    reap_locked(reaped);
    if (draining_) {
      result.status = StartStatus::ShuttingDown;
    } else if (running_locked() < options_.max_sessions) {
      session->id = next_id_++;
      ++started_;
      Session* raw = session.get();
      sessions_.push_back(std::move(session));
      raw->thread = std::thread([this, raw] { run_session(raw); });
      result.status = StartStatus::Started;
      result.id = raw->id;
    } else if (queue_.size() < options_.max_queued) {
      session->id = next_id_++;
      result.status = StartStatus::Queued;
      result.id = session->id;
      queue_.push_back(std::move(session));
    } else {
      result.status = StartStatus::QueueFull;
    }
  }
  // Outside the lock: a thread that has published `finished` may still be
  // exiting, and the join must not hold up the other sessions meanwhile.
  for (auto& done : reaped) {
    if (done->thread.joinable()) done->thread.join();
  }
  // A new deadline may be earlier than whatever the watchdog sleeps on;
  // without one there is nothing to wake it for.
  if (has_deadline && result.accepted()) watchdog_cv_.notify_all();
  return result;
}

void SessionManager::run_session(Session* session) {
  StreamObserver observer(session->id, session->stream, session->progress_stride,
                          session->sink);
  session->spec.observer = &observer;

  solver::SolveResult result = solver::Solver().solve(session->spec);
  if (session->deadline_hit.load(std::memory_order_relaxed) &&
      result.stop_reason == StopReason::Cancelled) {
    // The cancel came from the deadline watchdog, not the client.
    result.stop_reason = StopReason::DeadlineExpired;
  }

  // Only wall-clock-independent outcomes are cacheable: a Cancelled /
  // DeadlineExpired / TimeLimit result depends on when the run was
  // interrupted, so a repeat submission would legitimately differ.
  const bool deterministic_stop =
      result.stop_reason == StopReason::Completed ||
      result.stop_reason == StopReason::IterationBudget ||
      result.stop_reason == StopReason::TargetCost ||
      result.stop_reason == StopReason::TargetQuality;
  Payload payload = make_payload(encode_result(result));
  if (!session->cache_key.empty() && deterministic_stop) {
    // Insert BEFORE emitting Done: a client that has seen its result is
    // then guaranteed an identical re-submission hits the cache.
    const std::lock_guard<std::mutex> lock(mutex_);
    cache_insert_locked(std::move(session->cache_key), payload);
  }

  SessionEvent done;
  done.kind = SessionEvent::Kind::Done;
  done.session = session->id;
  done.result = std::move(result);
  done.payload = std::move(payload);
  session->sink(std::move(done));

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++finished_count_;
    // Publishing finished under the lock lets promote_locked() see this
    // slot as free; the reaper cannot run concurrently (it needs mutex_)
    // and a post-unlock join merely waits for this thread's imminent exit.
    session->finished.store(true, std::memory_order_release);
    promote_locked();
  }
}

void SessionManager::cache_insert_locked(std::string key, Payload payload) {
  if (options_.cache_entries == 0) return;
  const auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    // Same key, deterministic solve: the value is necessarily identical.
    // Just refresh recency.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_bytes_ += payload->size();
  cache_lru_.emplace_front(std::move(key), std::move(payload));
  cache_map_.emplace(cache_lru_.front().first, cache_lru_.begin());
  while (cache_lru_.size() > options_.cache_entries) {
    cache_bytes_ -= cache_lru_.back().second->size();
    cache_map_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
  }
}

std::optional<Payload> SessionManager::cached_result(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_map_.find(key);
  if (it == cache_map_.end()) {
    ++cache_misses_;
    return std::nullopt;
  }
  ++cache_hits_;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  return cache_lru_.front().second;
}

void SessionManager::promote_locked() {
  while (!draining_ && !queue_.empty() &&
         running_locked() < options_.max_sessions) {
    std::unique_ptr<Session> session = std::move(queue_.front());
    queue_.pop_front();
    ++started_;
    Session* raw = session.get();
    sessions_.push_back(std::move(session));
    raw->thread = std::thread([this, raw] { run_session(raw); });
  }
}

void SessionManager::reap_locked(std::vector<std::unique_ptr<Session>>& out) {
  auto it = sessions_.begin();
  while (it != sessions_.end()) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      out.push_back(std::move(*it));
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

bool SessionManager::cancel(std::uint64_t session_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& session : sessions_) {
    if (session->id != session_id) continue;
    if (session->finished.load(std::memory_order_acquire)) return false;
    session->token.cancel();
    return true;
  }
  for (const auto& session : queue_) {
    if (session->id != session_id) continue;
    // Cancelled while queued: the token is already set, so the eventual
    // promotion runs a solve that stops at its first check point and the
    // Done (stop_reason Cancelled) goes out as usual.
    session->token.cancel();
    return true;
  }
  return false;
}

void SessionManager::cancel_owned(std::uint64_t owner) {
  std::vector<std::unique_ptr<Session>> owned;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.begin();
    while (it != sessions_.end()) {
      if ((*it)->owner == owner) {
        (*it)->token.cancel();
        owned.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    // Queued sessions never started a thread; their owner is gone, so the
    // Done nobody would receive is skipped and the slot simply freed.
    auto qit = queue_.begin();
    while (qit != queue_.end()) {
      if ((*qit)->owner == owner) {
        qit = queue_.erase(qit);
      } else {
        ++qit;
      }
    }
    promote_locked();
  }
  // Join outside the lock: the session threads may be mid-sink (which can
  // block on a slow socket) and must not stall unrelated submissions.
  for (auto& session : owned) {
    if (session->thread.joinable()) session->thread.join();
  }
}

void SessionManager::drain() {
  std::vector<std::unique_ptr<Session>> all;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    queue_.clear();
    for (auto& session : sessions_) session->token.cancel();
    all.swap(sessions_);
  }
  for (auto& session : all) {
    if (session->thread.joinable()) session->thread.join();
  }
}

void SessionManager::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!watchdog_stop_) {
    std::optional<Clock::time_point> next;
    const auto consider = [&](const Session& session) {
      if (!session.has_deadline ||
          session.deadline_hit.load(std::memory_order_relaxed) ||
          session.finished.load(std::memory_order_acquire)) {
        return;
      }
      if (!next || session.deadline < *next) next = session.deadline;
    };
    for (const auto& session : sessions_) consider(*session);
    for (const auto& session : queue_) consider(*session);

    const auto now = Clock::now();
    if (next && *next <= now) {
      const auto expire = [&](Session& session) {
        if (!session.has_deadline ||
            session.deadline_hit.load(std::memory_order_relaxed) ||
            session.finished.load(std::memory_order_acquire) ||
            session.deadline > now) {
          return;
        }
        session.deadline_hit.store(true, std::memory_order_relaxed);
        session.token.cancel();
      };
      for (const auto& session : sessions_) expire(*session);
      for (const auto& session : queue_) expire(*session);
      // An expired *queued* session would otherwise sit until a slot frees;
      // promote it now (past the cap) so its DeadlineExpired Done goes out
      // promptly — the solve stops at its first cancellation check.
      auto qit = queue_.begin();
      while (qit != queue_.end()) {
        if ((*qit)->deadline_hit.load(std::memory_order_relaxed)) {
          std::unique_ptr<Session> session = std::move(*qit);
          qit = queue_.erase(qit);
          ++started_;
          Session* raw = session.get();
          sessions_.push_back(std::move(session));
          raw->thread = std::thread([this, raw] { run_session(raw); });
        } else {
          ++qit;
        }
      }
      continue;
    }
    if (next) {
      watchdog_cv_.wait_until(lock, *next);
    } else {
      watchdog_cv_.wait(lock);
    }
  }
}

std::size_t SessionManager::active_sessions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return running_locked();
}

std::size_t SessionManager::queued_sessions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::uint64_t SessionManager::sessions_started() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return started_;
}

std::uint64_t SessionManager::sessions_finished() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return finished_count_;
}

std::uint64_t SessionManager::cache_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_hits_;
}

std::uint64_t SessionManager::cache_misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_misses_;
}

std::size_t SessionManager::cache_size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_lru_.size();
}

std::size_t SessionManager::cache_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_bytes_;
}

}  // namespace pts::service
