#include "service/daemon.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/workloads.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/io.hpp"
#include "pvm/frame.hpp"
#include "service/codec.hpp"
#include "service/proto.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"

namespace pts::service {

namespace {

/// write(2) until done; MSG_NOSIGNAL so a dead peer yields EPIPE, not
/// SIGPIPE. False on any error (the caller marks the connection dead).
/// Goes through the fault wrappers so chaos runs can inject short writes
/// (absorbed by the loop) and hard failures; EAGAIN — injected or from a
/// genuinely full send buffer — waits for writability and retries.
bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = fault::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, 100);
        continue;
      }
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool make_pipe(int fds[2]) { return ::pipe(fds) == 0; }

}  // namespace

// -- connection -------------------------------------------------------------

struct Daemon::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::thread reader;
  std::mutex write_mutex;
  std::atomic<bool> write_failed{false};
  bool hello_done = false;           // reader thread only
  std::atomic<bool> finished{false};  // reader exited; reapable

  /// Serialized frame write; shared by the reader thread (replies) and the
  /// session threads (streamed events). Failures are sticky, and the socket
  /// is shut down so the reader wakes up and tears the connection down —
  /// a half-written reply leaves the stream unusable either way, and an
  /// injected write error never trips the kernel's own disconnect path.
  void send_frame(const pvm::Message& msg) {
    if (write_failed.load(std::memory_order_relaxed)) return;
    send_bytes(pvm::encode_frame(msg));
  }

  /// Both frames in one write, so the peer reads them in one wake-up.
  void send_frames(const pvm::Message& first, const pvm::Message& second) {
    if (write_failed.load(std::memory_order_relaxed)) return;
    std::vector<std::uint8_t> bytes;
    pvm::encode_frame(first, bytes);
    pvm::encode_frame(second, bytes);
    send_bytes(bytes);
  }

 private:
  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (!send_all(fd, bytes.data(), bytes.size())) {
      write_failed.store(true, std::memory_order_relaxed);
      ::shutdown(fd, SHUT_RDWR);
    }
  }
};

// -- impl -------------------------------------------------------------------

struct Daemon::Impl {
  explicit Impl(const DaemonConfig& config)
      : manager(SessionManager::Options{config.max_sessions, config.max_queued,
                                        config.cache_entries}) {}

  SessionManager manager;

  std::mutex mutex;
  std::vector<std::shared_ptr<Connection>> connections;
  std::uint64_t next_connection_id = 1;
  std::uint64_t accepted = 0;
  /// Memoized netlist::content_hash per servable circuit (the benchmark
  /// cache is process-lifetime and immutable, so one hash per name is
  /// enough — no point re-hashing scale10k on every submission).
  std::map<std::string, std::uint64_t> circuit_hashes;

  int unix_fd = -1;
  int tcp_fd = -1;
  int wake_pipe[2] = {-1, -1};  // stop() -> accept loop
  int stop_pipe[2] = {-1, -1};  // request_stop() -> wait_for_stop_request()
  std::thread accept_thread;
  std::atomic<bool> stopping{false};
  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
};

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), impl_(std::make_unique<Impl>(config_)) {}

Daemon::~Daemon() {
  stop();
  Impl& impl = *impl_;
  for (int i = 0; i < 2; ++i) {
    if (impl.stop_pipe[i] >= 0) ::close(impl.stop_pipe[i]);
    impl.stop_pipe[i] = -1;
  }
}

// -- listeners --------------------------------------------------------------

namespace {

int listen_unix(const std::string& path, std::string* error) {
  if (path.size() >= sizeof(sockaddr_un::sun_path)) {
    if (error) *error = "unix socket path too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket(AF_UNIX): ") + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());  // stale socket from a crashed predecessor
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error) *error = "bind/listen(" + path + "): " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(std::uint16_t port, std::uint16_t* resolved, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket(AF_INET): ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error) {
      *error = "bind/listen(tcp:" + std::to_string(port) +
               "): " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *resolved = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

bool Daemon::start(std::string* error) {
  Impl& impl = *impl_;
  if (impl.started.exchange(true)) {
    if (error) *error = "daemon already started";
    return false;
  }
  if (config_.unix_path.empty() && !config_.tcp) {
    if (error) *error = "no listener configured (unix_path empty, tcp off)";
    return false;
  }
  if (!make_pipe(impl.wake_pipe) || !make_pipe(impl.stop_pipe)) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (!config_.unix_path.empty()) {
    impl.unix_fd = listen_unix(config_.unix_path, error);
    if (impl.unix_fd < 0) return false;
  }
  if (config_.tcp) {
    impl.tcp_fd = listen_tcp(config_.tcp_port, &resolved_tcp_port_, error);
    if (impl.tcp_fd < 0) {
      if (impl.unix_fd >= 0) ::close(impl.unix_fd);
      return false;
    }
  }
  impl.accept_thread = std::thread([this] { accept_loop(); });
  log_info("ptsd") << "listening"
                       << (config_.unix_path.empty()
                               ? ""
                               : " unix=" + config_.unix_path)
                       << (config_.tcp
                               ? " tcp=127.0.0.1:" + std::to_string(tcp_port())
                               : "");
  return true;
}

void Daemon::request_stop() {
  // Async-signal-safe: one write to the stop pipe. The accept loop and
  // wait_for_stop_request() both poll this pipe's read end (without
  // consuming it — see accept_loop), so one byte wakes everyone.
  const Impl& impl = *impl_;
  if (impl.stop_pipe[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(impl.stop_pipe[1], &byte, 1);
  }
}

void Daemon::wait_for_stop_request() {
  const Impl& impl = *impl_;
  if (impl.stop_pipe[0] < 0) return;
  pollfd pfd{impl.stop_pipe[0], POLLIN, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, -1);
    if (rc > 0 || (rc < 0 && errno != EINTR)) return;
  }
}

void Daemon::stop() {
  Impl& impl = *impl_;
  if (!impl.started.load() || impl.stopped.exchange(true)) return;
  impl.stopping.store(true);
  request_stop();
  // Wake the accept loop and join it first so no new connections arrive.
  {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(impl.wake_pipe[1], &byte, 1);
  }
  if (impl.accept_thread.joinable()) impl.accept_thread.join();
  if (impl.unix_fd >= 0) ::close(impl.unix_fd);
  if (impl.tcp_fd >= 0) ::close(impl.tcp_fd);

  // Unblock every reader (shutdown, not close: readers own the close) and
  // join them; each reader cancels + joins its own sessions on the way out.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    connections.swap(impl.connections);
  }
  for (const auto& connection : connections) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (const auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
  }
  // Safety net for sessions whose owner connection outlived tracking.
  impl.manager.drain();

  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
  for (int i = 0; i < 2; ++i) {
    if (impl.wake_pipe[i] >= 0) ::close(impl.wake_pipe[i]);
    impl.wake_pipe[i] = -1;
  }
  // The stop pipe deliberately stays open until ~Daemon(): request_stop()
  // must remain callable (from a signal handler, or a late second SIGTERM)
  // concurrently with stop(), and closing here would race that write —
  // worst case onto a recycled fd number belonging to something else.
  log_info("ptsd") << "stopped; sessions started="
                       << impl.manager.sessions_started()
                       << " finished=" << impl.manager.sessions_finished();
}

// -- accept loop ------------------------------------------------------------

void Daemon::accept_loop() {
  Impl& impl = *impl_;
  std::vector<pollfd> fds;
  while (!impl.stopping.load()) {
    fds.clear();
    fds.push_back({impl.wake_pipe[0], POLLIN, 0});
    fds.push_back({impl.stop_pipe[0], POLLIN, 0});
    if (impl.unix_fd >= 0) fds.push_back({impl.unix_fd, POLLIN, 0});
    if (impl.tcp_fd >= 0) fds.push_back({impl.tcp_fd, POLLIN, 0});
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // A stop request (pipe readable; deliberately not drained so
    // wait_for_stop_request() sees it too) ends the loop.
    if ((fds[0].revents | fds[1].revents) & POLLIN) break;
    for (std::size_t i = 2; i < fds.size(); ++i) {
      if (!(fds[i].revents & POLLIN)) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;
      auto connection = std::make_shared<Connection>();
      connection->fd = client;
      {
        const std::lock_guard<std::mutex> lock(impl.mutex);
        connection->id = impl.next_connection_id++;
        ++impl.accepted;
        // Reap connections whose readers already exited, so a long-lived
        // daemon does not accumulate dead threads.
        auto it = impl.connections.begin();
        while (it != impl.connections.end()) {
          if ((*it)->finished.load()) {
            if ((*it)->reader.joinable()) (*it)->reader.join();
            it = impl.connections.erase(it);
          } else {
            ++it;
          }
        }
        impl.connections.push_back(connection);
        connection->reader =
            std::thread([this, connection] { reader_loop(connection); });
      }
    }
  }
}

// -- per-connection reader --------------------------------------------------

void Daemon::reader_loop(const std::shared_ptr<Connection>& connection) {
  Impl& impl = *impl_;
  pvm::FrameDecoder decoder(config_.max_payload);
  std::vector<std::uint8_t> buffer(64 * 1024);
  bool alive = true;
  while (alive) {
    const ssize_t n = fault::read(connection->fd, buffer.data(), buffer.size());
    if (n == 0) break;  // orderly EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN can be injected by a fault plan (and cannot otherwise occur
      // on these blocking sockets): transient, retry. Anything else — real
      // or injected ECONNRESET — is a dead peer.
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    decoder.feed(buffer.data(), static_cast<std::size_t>(n));
    while (alive) {
      auto msg = decoder.next();
      if (!msg) break;
      alive = handle_frame(*connection, *msg);
    }
    if (decoder.errored()) {
      // Framing violation: the stream is desynchronized; drop it.
      log_warn("ptsd") << "connection " << connection->id
                           << ": " << decoder.error() << "; closing";
      break;
    }
  }
  // Mid-solve disconnect (or drain): this connection's sessions must not
  // outlive it — cancel and join them before the socket goes away.
  impl.manager.cancel_owned(connection->id);
  ::close(connection->fd);
  connection->finished.store(true);
}

// -- request handling --------------------------------------------------------

bool Daemon::handle_frame(Connection& connection, pvm::Message& msg) {
  switch (msg.tag()) {
    case kHello: {
      HelloMsg hello;
      if (!decode(msg, hello)) {
        connection.send_frame(encode(ErrorMsg{"malformed hello"}));
        return true;
      }
      connection.hello_done = true;
      WelcomeMsg welcome;
      welcome.server = config_.server_name;
      welcome.engines = solver::engine_names();
      welcome.circuits = experiments::circuit_names();
      for (auto& name : experiments::scale_circuit_names()) {
        welcome.circuits.push_back(std::move(name));
      }
      connection.send_frame(encode(welcome));
      return true;
    }
    case kSubmit: {
      if (!connection.hello_done) {
        connection.send_frame(encode(ErrorMsg{"hello required before submit"}));
        return true;
      }
      SubmitMsg submit;
      if (!decode(msg, submit)) {
        connection.send_frame(encode(ErrorMsg{"malformed submit"}));
        return true;
      }
      handle_submit(connection, submit);
      return true;
    }
    case kCancel: {
      CancelMsg cancel;
      if (!decode(msg, cancel)) {
        connection.send_frame(encode(ErrorMsg{"malformed cancel"}));
        return true;
      }
      CancelOkMsg ok;
      ok.session = cancel.session;
      ok.was_active = impl_->manager.cancel(cancel.session);
      connection.send_frame(encode(ok));
      return true;
    }
    case kShutdown: {
      if (!decode_shutdown(msg)) {
        connection.send_frame(encode(ErrorMsg{"malformed shutdown"}));
        return true;
      }
      connection.send_frame(encode_shutdown_ok());
      // The reader cannot stop() (stop joins this very thread); hand the
      // request to whoever waits on the stop pipe (the ptsd main thread).
      request_stop();
      return true;
    }
    default:
      connection.send_frame(encode(
          ErrorMsg{std::string("unknown request tag ") + std::to_string(msg.tag())}));
      return true;
  }
}

void Daemon::handle_submit(Connection& connection, const SubmitMsg& submit) {
  Impl& impl = *impl_;
  if (impl.stopping.load()) {
    connection.send_frame(encode(SubmitErrMsg{"daemon is draining"}));
    return;
  }
  std::string error;
  auto job = decode_spec(submit.spec_json, &error);
  if (!job) {
    connection.send_frame(encode(SubmitErrMsg{"bad spec: " + error}));
    return;
  }
  if (!netlist::is_paper_benchmark(job->circuit) &&
      !netlist::is_scale_benchmark(job->circuit)) {
    connection.send_frame(
        encode(SubmitErrMsg{"unknown circuit '" + job->circuit + "'"}));
    return;
  }
  // The benchmark cache is process-lifetime, so the pointer stays valid for
  // the whole session; 100 sessions on scale10k share one netlist.
  job->spec.netlist = &experiments::circuit(job->circuit);

  // Validate *before* start: Solver::solve aborts on an invalid spec, which
  // is correct for programming errors but must never be reachable from the
  // wire.
  if (auto errors = solver::Solver().validate(job->spec); !errors.empty()) {
    std::string joined = "invalid spec:";
    for (const auto& e : errors) joined += " " + e + ";";
    connection.send_frame(encode(SubmitErrMsg{std::move(joined)}));
    return;
  }

  // ECO mode: a repeat of a cacheable job is answered from the result
  // cache — kSubmitOk{cached, session 0} immediately followed by its kDone,
  // no solver thread. session 0 is unambiguous because both frames go out
  // in one write on the reader thread, before any further submit is read.
  std::string key;
  if (config_.cache_entries > 0 && spec_cacheable(*job)) {
    std::uint64_t circuit_hash = 0;
    {
      const std::lock_guard<std::mutex> lock(impl.mutex);
      const auto it = impl.circuit_hashes.find(job->circuit);
      if (it != impl.circuit_hashes.end()) {
        circuit_hash = it->second;
      } else {
        circuit_hash = netlist::content_hash(*job->spec.netlist);
        impl.circuit_hashes.emplace(job->circuit, circuit_hash);
      }
    }
    key = cache_key(*job, circuit_hash);
    if (const auto hit = impl.manager.cached_result(key)) {
      if (submit.request_id != 0) {
        log_info("ptsd") << "connection " << connection.id << " request "
                         << submit.request_id << " -> cache hit";
      }
      SubmitOkMsg ok;
      ok.session = 0;
      ok.cached = true;
      // The stored bytes go out as they are: nothing is decoded or encoded.
      connection.send_frames(encode(ok), encode_done(0, **hit));
      return;
    }
  }

  // The sink runs on the session thread; the shared_ptr keeps the
  // Connection object alive even if the socket dies mid-stream (writes
  // then fail softly and the reader tears the sessions down).
  std::shared_ptr<Connection> conn;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    for (const auto& candidate : impl.connections) {
      if (candidate.get() == &connection) {
        conn = candidate;
        break;
      }
    }
  }
  if (conn == nullptr) {  // connection already being torn down
    connection.send_frame(encode(SubmitErrMsg{"connection closing"}));
    return;
  }
  // Per-job deadline wins; otherwise the daemon default applies.
  const double deadline = job->deadline_seconds > 0.0
                              ? job->deadline_seconds
                              : config_.session_deadline_seconds;
  const auto started = impl.manager.start(
      std::move(job->spec), connection.id, submit.stream, submit.progress_stride,
      [conn](SessionEvent&& event) {
        if (event.kind == SessionEvent::Kind::Progress) {
          ProgressMsg progress;
          progress.session = event.session;
          progress.improvement = event.improvement;
          progress.iteration = event.progress.iteration;
          progress.seconds = event.progress.seconds;
          progress.current_cost = event.progress.current_cost;
          progress.best_cost = event.progress.best_cost;
          conn->send_frame(encode(progress));
        } else {
          conn->send_frame(encode_done(event.session, *event.payload));
        }
      },
      deadline, std::move(key));
  switch (started.status) {
    case SessionManager::StartStatus::Started:
    case SessionManager::StartStatus::Queued: {
      if (submit.request_id != 0) {
        log_info("ptsd") << "connection " << connection.id << " request "
                         << submit.request_id << " -> session " << started.id
                         << (started.status == SessionManager::StartStatus::Queued
                                 ? " (queued)"
                                 : "");
      }
      SubmitOkMsg ok;
      ok.session = started.id;
      ok.queued = started.status == SessionManager::StartStatus::Queued;
      connection.send_frame(encode(ok));
      return;
    }
    case SessionManager::StartStatus::QueueFull:
      connection.send_frame(encode(SubmitErrMsg{"queue full: retry later"}));
      return;
    case SessionManager::StartStatus::ShuttingDown:
      connection.send_frame(encode(SubmitErrMsg{"daemon is draining"}));
      return;
  }
}

// -- counters ---------------------------------------------------------------

std::size_t Daemon::active_sessions() const { return impl_->manager.active_sessions(); }
std::size_t Daemon::queued_sessions() const {
  return impl_->manager.queued_sessions();
}
std::uint64_t Daemon::sessions_started() const {
  return impl_->manager.sessions_started();
}
std::uint64_t Daemon::sessions_finished() const {
  return impl_->manager.sessions_finished();
}
std::uint64_t Daemon::connections_accepted() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->accepted;
}
std::uint64_t Daemon::cache_hits() const { return impl_->manager.cache_hits(); }
std::uint64_t Daemon::cache_misses() const {
  return impl_->manager.cache_misses();
}
std::size_t Daemon::cache_size() const { return impl_->manager.cache_size(); }
std::size_t Daemon::cache_bytes() const { return impl_->manager.cache_bytes(); }

}  // namespace pts::service
