// Deterministic fault injection for the serving and parallel layers.
//
// A FaultPlan is a seeded decision stream: every hook point (socket read,
// socket write, connect, pvm message delivery) draws the next decision from
// the plan's private RNG, so the *sequence* of injected faults is a pure
// function of (seed, config). With one thread driving the hooks the whole
// fault schedule replays exactly; under concurrency the per-call decisions
// are still drawn from one deterministic sequence, but which thread receives
// which decision follows the OS schedule — the robustness guarantees under
// test (no leaks, retried results bit-identical) must hold for *every*
// interleaving, so that is the right contract.
//
// Three fault families:
//  - Socket syscalls (fault::read / fault::send / fault::connect_fd): short
//    reads/writes capped at `short_cap` bytes, and injected errno failures
//    (ECONNRESET / EPIPE / EAGAIN) without touching the socket. Wrappers are
//    zero-cost passthroughs when no plan is installed (one relaxed atomic
//    load). Production code in service/ calls the wrappers unconditionally.
//  - pvm messages (Mailbox::set_fault_plan): deliveries may be dropped or
//    delayed — a delayed message is held back and released after the next
//    passed delivery, modeling reordering; messages still held at close are
//    lost.
//  - Worker stall/death scripts (WorkerFaultScript, embedded in
//    parallel::PtsConfig::faults): kills or slows a TSW at a scripted global
//    iteration. This family is not random — it replays exactly, which is
//    what makes the sim engine's recovery path deterministic and testable.
//    An empty script sets no report deadline, so no TSW is ever lost and
//    fault-free trajectories stay bit-identical to the goldens.
//
// Install a plan process-globally with install() (tests use
// ScopedFaultInjection); only one plan can be active at a time.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "support/rng.hpp"

namespace pts::fault {

// -- socket fault configuration ---------------------------------------------

struct SocketFaultConfig {
  /// Probability that a read/write call fails outright with an injected
  /// errno (drawn uniformly from the matching error list below).
  double read_error_rate = 0.0;
  double write_error_rate = 0.0;
  /// Probability that a connect() call fails with `connect_error`.
  double connect_error_rate = 0.0;
  /// Probability that a read/write is truncated to at most `short_cap`
  /// bytes (the exact cap is drawn in [1, short_cap] per call).
  double short_read_rate = 0.0;
  double short_write_rate = 0.0;
  std::size_t short_cap = 3;
  /// pvm mailbox delivery faults (see Mailbox::set_fault_plan).
  double message_drop_rate = 0.0;
  double message_delay_rate = 0.0;

  std::vector<int> read_errors = {ECONNRESET, EAGAIN};
  std::vector<int> write_errors = {EPIPE, ECONNRESET, EAGAIN};
  int connect_error = ECONNREFUSED;
};

// -- scripted worker faults (sim engine) ------------------------------------

struct WorkerFault {
  enum class Kind {
    Death,  ///< the worker stops executing from `at_iteration` on
    Stall,  ///< the worker's machines run `stall_factor`x slower for a while
  };
  Kind kind = Kind::Death;
  std::size_t worker = 0;        ///< TSW index
  std::size_t at_iteration = 0;  ///< 0-based global iteration where it fires
  double stall_factor = 8.0;
  std::size_t stall_iterations = 1;
};

struct WorkerFaultScript {
  std::vector<WorkerFault> faults;
  /// Virtual seconds past the earliest report arrival after which the
  /// master declares a missing TSW dead and redistributes its share.
  double report_deadline = 2.0;

  bool enabled() const { return !faults.empty(); }
};

// -- the plan ----------------------------------------------------------------

class FaultPlan {
 public:
  struct IoDecision {
    enum class Kind { Pass, Cap, Fail };
    Kind kind = Kind::Pass;
    std::size_t cap = 0;  ///< Kind::Cap: max bytes this call may move
    int error = 0;        ///< Kind::Fail: errno to inject
  };
  enum class MessageDecision { Pass, Drop, Delay };

  struct Counters {
    std::uint64_t read_errors = 0;
    std::uint64_t write_errors = 0;
    std::uint64_t connect_errors = 0;
    std::uint64_t short_reads = 0;
    std::uint64_t short_writes = 0;
    std::uint64_t dropped_messages = 0;
    std::uint64_t delayed_messages = 0;
  };

  FaultPlan(std::uint64_t seed, SocketFaultConfig config);

  // Per-hook decisions; thread-safe, each advances the decision stream.
  IoDecision on_read();
  IoDecision on_write();
  /// True: inject a connect failure, `*error_out` holds the errno.
  bool on_connect(int* error_out);
  MessageDecision on_message();

  Counters counters() const;

 private:
  IoDecision io_decision_locked(double error_rate, double short_rate,
                                const std::vector<int>& errors,
                                std::uint64_t& error_counter,
                                std::uint64_t& short_counter);

  mutable std::mutex mutex_;
  SocketFaultConfig config_;
  Rng rng_;
  Counters counters_;
};

// -- process-global installation --------------------------------------------

/// Installs `plan` as the process-global socket fault plan (nullptr
/// uninstalls). The caller must guarantee the plan outlives every socket
/// call that might observe it — install before starting daemon/client
/// threads, uninstall after they are joined. Tests use ScopedFaultInjection.
void install(FaultPlan* plan);
FaultPlan* installed();

/// RAII install/uninstall of an owned plan for the scope of a test.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(std::uint64_t seed, SocketFaultConfig config)
      : plan_(seed, std::move(config)) {
    install(&plan_);
  }
  ~ScopedFaultInjection() { install(nullptr); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  FaultPlan& plan() { return plan_; }

 private:
  FaultPlan plan_;
};

// -- syscall wrappers --------------------------------------------------------
//
// Drop-in replacements for ::read / ::send / ::connect on sockets. With no
// plan installed they forward directly; with a plan, each call first draws a
// decision: Fail sets errno and returns -1 *without touching the socket*
// (the connection is healthy but the caller must behave as if it broke),
// Cap truncates the byte count before forwarding (a short read/write the
// caller's loop must absorb).

ssize_t read(int fd, void* buffer, std::size_t size);
ssize_t send(int fd, const void* buffer, std::size_t size, int flags);
int connect_fd(int fd, const struct sockaddr* addr, socklen_t len);

}  // namespace pts::fault
