// The serving layer (src/service): JSON core, spec/result codec, wire
// protocol, session manager, and the ptsd daemon end to end over real Unix
// sockets — including the hardening contract (malformed frames drop the
// connection, schema violations answer kError and survive) and the headline
// guarantee that a daemon-served solve is bit-identical to a direct
// same-seed solver::solve.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "experiments/workloads.hpp"
#include "pvm/frame.hpp"
#include "service/client.hpp"
#include "service/codec.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "service/proto.hpp"
#include "service/session.hpp"
#include "solver/solver.hpp"
#include "support/fault.hpp"

namespace pts::service {
namespace {

using solver::SolveResult;
using solver::SolveSpec;

// -- helpers -----------------------------------------------------------------

std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/pts-svc-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Raw Unix-domain connection, for bytes the Client refuses to send.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocks until the peer closes (true) or data arrives (false).
bool reads_eof(int fd) {
  std::uint8_t buffer[1024];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) return true;
    if (n < 0 && errno != EINTR) return true;  // reset counts as closed
    if (n > 0) return false;
  }
}

SolveSpec highway_spec(std::string engine, std::uint64_t seed,
                       std::size_t iterations) {
  SolveSpec spec;
  spec.engine = std::move(engine);
  spec.netlist = &experiments::circuit("highway");
  spec.seed = seed;
  spec.tabu.iterations = iterations;
  return spec;
}

void expect_series_eq(const Series& a, const Series& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.x.size(), b.x.size());
  ASSERT_EQ(a.y.size(), b.y.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << "x[" << i << "]";
    EXPECT_EQ(a.y[i], b.y[i]) << "y[" << i << "]";
  }
}

/// Every field that is deterministic for all engines (wall-clock series and
/// makespan are engine-dependent; the sim-engine test compares those too).
void expect_deterministic_fields_eq(const SolveResult& a, const SolveResult& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_quality, b.best_quality);
  EXPECT_EQ(a.best_objectives.wirelength, b.best_objectives.wirelength);
  EXPECT_EQ(a.best_objectives.delay, b.best_objectives.delay);
  EXPECT_EQ(a.best_objectives.area, b.best_objectives.area);
  EXPECT_EQ(a.best_slots, b.best_slots);
  expect_series_eq(a.cost_trace, b.cost_trace);
  expect_series_eq(a.best_trace, b.best_trace);
  expect_series_eq(a.best_vs_global, b.best_vs_global);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_EQ(a.stats.trials, b.stats.trials);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.converged, b.converged);
}

// -- json --------------------------------------------------------------------

TEST(Json, WriteValidateReadRoundTrip) {
  std::string text;
  json::Writer out(text);
  out.begin_object();
  out.key("a").number(1.0);
  out.key("b").begin_array();
  out.boolean(true);
  out.boolean(false);
  out.null();
  out.end_array();
  out.key("c").begin_object();
  out.key("nested").string("va\"l\\ue");
  out.end_object();
  out.key("d").number(-2.5);
  out.end_object();
  EXPECT_EQ(text,
            R"({"a":1,"b":[true,false,null],"c":{"nested":"va\"l\\ue"},"d":-2.5})");
  std::string error;
  json::Document doc;
  ASSERT_TRUE(doc.parse(text, &error)) << error;

  const json::Node root = doc.root();
  ASSERT_EQ(root.kind(), json::Kind::Object);
  std::vector<std::string> keys;
  root.for_each_member([&](std::string_view key, const json::Node& value) {
    keys.emplace_back(key);
    if (key == "a") {
      EXPECT_EQ(value.as_number(), 1.0);
    }
    if (key == "b") {
      std::vector<json::Kind> kinds;
      value.for_each_item([&](const json::Node& item) {
        kinds.push_back(item.kind());
        return true;
      });
      EXPECT_EQ(kinds, (std::vector<json::Kind>{json::Kind::Bool, json::Kind::Bool,
                                                json::Kind::Null}));
    }
    if (key == "c") {
      value.for_each_member([&](std::string_view inner, const json::Node& v) {
        EXPECT_EQ(inner, "nested");
        EXPECT_EQ(v.as_string(), "va\"l\\ue");
      });
    }
    if (key == "d") {
      EXPECT_EQ(value.as_number(), -2.5);
    }
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(root.end(), text.size());
}

TEST(Json, LongContainersEndWhereTheTextSays) {
  // Containers of at least Document::kRecordedSpan bytes end from the table
  // the validating pass fills, shorter ones by scanning; both must land
  // where the text says. Nested long containers close inner-first, so this
  // also covers the table's ordering.
  std::string text;
  json::Writer out(text);
  out.begin_object();
  out.key("outer").begin_object();
  out.key("long").begin_array();
  for (int i = 0; i < 400; ++i) out.number(1000 + i);
  out.end_array();
  out.key("short").begin_array();
  out.number(1);
  out.end_array();
  out.end_object();
  out.key("tail").begin_array();
  out.string(std::string(json::Document::kRecordedSpan, 'x'));
  out.end_array();
  out.end_object();
  ASSERT_GT(text.find("\"short\""), json::Document::kRecordedSpan);

  std::string error;
  json::Document doc;
  ASSERT_TRUE(doc.parse(text, &error)) << error;
  const json::Node root = doc.root();
  EXPECT_EQ(root.end(), text.size());
  std::vector<std::string> keys;
  root.for_each_member([&](std::string_view key, const json::Node& value) {
    keys.emplace_back(key);
    if (key == "outer") {
      EXPECT_EQ(text.substr(value.end(), 8), ",\"tail\":");
      value.for_each_member([&](std::string_view inner, const json::Node& v) {
        keys.emplace_back(inner);
        if (inner == "long") {
          EXPECT_EQ(text.substr(v.end(), 9), ",\"short\":");
          std::size_t n = 0;
          EXPECT_TRUE(v.for_each_number([&](double x) {
            return x == static_cast<double>(1000 + n++);
          }));
          EXPECT_EQ(n, 400u);
        }
        if (inner == "short") {
          EXPECT_EQ(text.substr(v.end(), 2), "},");
        }
      });
    }
    if (key == "tail") {
      EXPECT_EQ(value.end() + 1, text.size());
    }
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"outer", "long", "short", "tail"}));
}

TEST(Json, UnicodeEscapes) {
  const std::string text = R"("aAé€😀")";
  std::string error;
  json::Document doc;
  ASSERT_TRUE(doc.parse(text, &error)) << error;
  EXPECT_EQ(doc.root().as_string(),
            "aA\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  // Lone surrogate is malformed.
  EXPECT_FALSE(doc.parse(R"("\ud83d")", &error));
  EXPECT_EQ(error, "lone surrogate (at byte 7)");
}

TEST(Json, DoublesRoundTripBitExact) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 1.7976931348623157e308,
                         -0.0, 4503599627370496.0, 3.141592653589793}) {
    std::string text;
    json::Writer(text).number(v);
    std::string error;
    json::Document doc;
    ASSERT_TRUE(doc.parse(text, &error)) << error;
    const double r = doc.root().as_number();
    EXPECT_EQ(std::memcmp(&r, &v, sizeof(double)), 0)
        << "double " << v << " did not round-trip bit-exactly";
  }
  // Integers print as doubles do, exponent form included.
  std::string text;
  json::Writer out(text);
  out.begin_array();
  for (const double v : {99999.0, 100000.0, 123456.0}) out.number(v);
  out.end_array();
  EXPECT_EQ(text, "[99999,1e+05,123456]");
}

TEST(Json, MalformedInputsAreErrorsNotAborts) {
  std::string error;
  json::Document doc;
  EXPECT_FALSE(doc.parse("", &error));
  EXPECT_FALSE(doc.parse("{", &error));
  EXPECT_FALSE(doc.parse("[1,]", &error));
  EXPECT_FALSE(doc.parse("{\"a\":1} junk", &error));
  EXPECT_FALSE(doc.parse("nul", &error));
  EXPECT_FALSE(doc.parse("\"unterminated", &error));
  // Depth cap: 65 nested arrays exceed the 64-level limit...
  const std::string too_deep = std::string(65, '[') + std::string(65, ']');
  EXPECT_FALSE(doc.parse(too_deep, &error));
  EXPECT_NE(error.find("deep"), std::string::npos);
  // ...while 64 parse fine.
  const std::string deep = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(doc.parse(deep, &error));
}

// -- codec -------------------------------------------------------------------

TEST(Codec, SpecRoundTripPreservesEveryField) {
  JobRequest job;
  job.circuit = "c532";
  job.spec.engine = "parallel-sim";
  job.spec.seed = 987654321;
  job.spec.cost.num_paths = 12;
  job.spec.cost.beta = 0.75;
  job.spec.tabu.tenure = 17;
  job.spec.tabu.iterations = 333;
  job.spec.tabu.aspiration = false;
  job.spec.stop.max_iterations = 100;
  job.spec.stop.max_seconds = 1.5;
  job.spec.stop.target_cost = 0.125;

  std::string error;
  const std::string text = encode_spec(job);
  auto back = decode_spec(text, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->circuit, "c532");
  EXPECT_EQ(back->spec.engine, "parallel-sim");
  EXPECT_EQ(back->spec.seed, 987654321u);
  EXPECT_EQ(back->spec.cost.num_paths, 12u);
  EXPECT_EQ(back->spec.cost.beta, 0.75);
  EXPECT_EQ(back->spec.tabu.tenure, 17u);
  EXPECT_EQ(back->spec.tabu.iterations, 333u);
  EXPECT_FALSE(back->spec.tabu.aspiration);
  EXPECT_EQ(back->spec.stop.max_iterations, 100u);
  EXPECT_EQ(back->spec.stop.max_seconds, 1.5);
  ASSERT_TRUE(back->spec.stop.target_cost.has_value());
  EXPECT_EQ(*back->spec.stop.target_cost, 0.125);
  // Non-serializable fields stay for the daemon to fill.
  EXPECT_EQ(back->spec.netlist, nullptr);
  EXPECT_EQ(back->spec.stop.cancel, nullptr);
  EXPECT_EQ(back->spec.observer, nullptr);
}

TEST(Codec, StrictDecodingRejectsBadSpecs) {
  std::string error;
  // Unknown key.
  EXPECT_FALSE(decode_spec(R"({"circuit":"highway","bogus":1})", &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  // Wrong type.
  EXPECT_FALSE(decode_spec(R"({"circuit":7})", &error).has_value());
  // Integral field out of exact-double range.
  EXPECT_FALSE(
      decode_spec(R"({"circuit":"highway","seed":1e300})", &error).has_value());
  // Not JSON at all.
  EXPECT_FALSE(decode_spec("solve it please", &error).has_value());
}

// The candidate batch width is a fixed constant of the probe kernel, not a
// spec knob: specs that still carry the retired members are rejected like
// any other unknown key, with the dotted path of the object holding it.
TEST(Codec, RetiredBatchMembersAreUnknownKeys) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"circuit":"highway","tabu":{"compound":{"batch":8}}})",
       "spec.tabu.compound: unknown key 'batch'"},
      {R"({"circuit":"highway","parallel":{"diversify":{"batch":8}}})",
       "spec.parallel.diversify: unknown key 'batch'"},
      {R"({"circuit":"highway","shared":{"chunk":0}})",
       "spec.shared: unknown key 'chunk'"},
  };
  for (const auto& [text, expected] : cases) {
    std::string error;
    EXPECT_FALSE(decode_spec(text, &error).has_value()) << text;
    EXPECT_EQ(error, expected);
  }
}

TEST(Codec, ResultRoundTripIsBitExact) {
  auto result = solver::Solver().solve(highway_spec("tabu", 11, 80));
  ASSERT_GT(result.best_vs_time.size(), 0u);

  std::string error;
  auto back = decode_result(encode_result(result), &error);
  ASSERT_TRUE(back.has_value()) << error;
  expect_deterministic_fields_eq(result, *back);
  // The wall-clock series and makespan also survive the wire bit-exactly
  // (the codec property; they just aren't comparable across *runs*).
  expect_series_eq(result.best_vs_time, back->best_vs_time);
  EXPECT_EQ(result.makespan, back->makespan);
}

// -- proto -------------------------------------------------------------------

TEST(Proto, MessagesRoundTrip) {
  {
    WelcomeMsg in;
    in.server = "ptsd-test";
    in.engines = {"anneal", "tabu"};
    in.circuits = {"highway"};
    auto msg = encode(in);
    WelcomeMsg out;
    ASSERT_TRUE(decode(msg, out));
    EXPECT_EQ(out.version, kProtocolVersion);
    EXPECT_EQ(out.server, "ptsd-test");
    EXPECT_EQ(out.engines, in.engines);
    EXPECT_EQ(out.circuits, in.circuits);
  }
  {
    SubmitMsg in;
    in.spec_json = R"({"circuit":"highway"})";
    in.stream = true;
    in.progress_stride = 16;
    auto msg = encode(in);
    SubmitMsg out;
    ASSERT_TRUE(decode(msg, out));
    EXPECT_EQ(out.spec_json, in.spec_json);
    EXPECT_TRUE(out.stream);
    EXPECT_EQ(out.progress_stride, 16u);
  }
  {
    ProgressMsg in;
    in.session = 42;
    in.improvement = true;
    in.iteration = 1000;
    in.seconds = 1.25;
    in.current_cost = 0.5;
    in.best_cost = 0.25;
    auto msg = encode(in);
    ProgressMsg out;
    ASSERT_TRUE(decode(msg, out));
    EXPECT_EQ(out.session, 42u);
    EXPECT_TRUE(out.improvement);
    EXPECT_EQ(out.iteration, 1000u);
    EXPECT_EQ(out.best_cost, 0.25);
  }
  {
    auto msg = encode_shutdown();
    EXPECT_TRUE(decode_shutdown(msg));
  }
}

TEST(Proto, HardenedDecodeRejectsForeignPayloads) {
  // Right tag, wrong schema: a kSubmitOk payload pretending to be kWelcome.
  auto ok = encode(SubmitOkMsg{7});
  auto foreign = pvm::Message::from_payload(kWelcome, ok.bytes());
  WelcomeMsg welcome;
  EXPECT_FALSE(decode(foreign, welcome));

  // Trailing bytes after a valid payload are rejected.
  auto hello = encode(HelloMsg{});
  auto padded_bytes = hello.bytes();
  pvm::Message padded = pvm::Message::from_payload(kHello, padded_bytes);
  padded.pack_u32(1);
  HelloMsg out;
  EXPECT_FALSE(decode(padded, out));

  // Garbage bytes under a known tag must return false, never abort.
  auto garbage = pvm::Message::from_payload(kSubmit, {0xde, 0xad, 0xbe, 0xef});
  SubmitMsg submit;
  EXPECT_FALSE(decode(garbage, submit));
}

// -- session manager ---------------------------------------------------------

TEST(SessionManager, RunsToDoneExactlyOnceAndMatchesDirect) {
  SessionManager manager;
  std::mutex mutex;
  std::vector<SessionEvent> events;
  const auto started = manager.start(
      highway_spec("tabu", 5, 60), /*owner=*/1, /*stream=*/true,
      /*progress_stride=*/0, [&](SessionEvent&& event) {
        const std::lock_guard<std::mutex> lock(mutex);
        events.push_back(std::move(event));
      });
  ASSERT_EQ(started.status, SessionManager::StartStatus::Started);
  const auto id = started.id;
  ASSERT_NE(id, 0u);
  // drain() *cancels*; to observe a natural completion, wait for the
  // session to finish on its own first.
  while (manager.sessions_finished() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.drain();

  ASSERT_FALSE(events.empty());
  std::size_t done_count = 0;
  for (const auto& event : events) {
    EXPECT_EQ(event.session, id);
    if (event.kind == SessionEvent::Kind::Done) ++done_count;
  }
  EXPECT_EQ(done_count, 1u);
  EXPECT_EQ(events.back().kind, SessionEvent::Kind::Done);

  const auto direct = solver::Solver().solve(highway_spec("tabu", 5, 60));
  expect_deterministic_fields_eq(events.back().result, direct);
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_EQ(manager.sessions_started(), 1u);
  EXPECT_EQ(manager.sessions_finished(), 1u);
}

TEST(SessionManager, EnforcesCapacityAndCancelDeliversCancelledDone) {
  // max_queued = 0 disables the admission queue, restoring hard rejection.
  SessionManager manager(
      SessionManager::Options{/*max_sessions=*/1, /*max_queued=*/0});
  std::atomic<bool> done{false};
  std::atomic<int> done_events{0};
  SolveResult final_result;
  const auto started = manager.start(
      highway_spec("tabu", 3, 50'000'000), /*owner=*/1, /*stream=*/false, 0,
      [&](SessionEvent&& event) {
        if (event.kind == SessionEvent::Kind::Done) {
          final_result = std::move(event.result);
          ++done_events;
          done.store(true);
        }
      });
  ASSERT_EQ(started.status, SessionManager::StartStatus::Started);
  const auto id = started.id;
  ASSERT_NE(id, 0u);
  EXPECT_EQ(manager.active_sessions(), 1u);

  // At capacity with no queue: the second start is rejected explicitly
  // (and its sink never fires).
  const auto rejected = manager.start(
      highway_spec("tabu", 4, 10), /*owner=*/1, false, 0,
      [](SessionEvent&&) { FAIL() << "rejected session must not emit events"; });
  EXPECT_EQ(rejected.status, SessionManager::StartStatus::QueueFull);
  EXPECT_FALSE(rejected.accepted());
  EXPECT_EQ(rejected.id, 0u);

  EXPECT_TRUE(manager.cancel(id));
  manager.drain();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(done_events.load(), 1);
  EXPECT_EQ(final_result.stop_reason, StopReason::Cancelled);
  // Unknown / finished sessions report inactive.
  EXPECT_FALSE(manager.cancel(id));
  EXPECT_FALSE(manager.cancel(9999));
  // Draining managers reject new sessions with their own status.
  EXPECT_EQ(manager
                .start(highway_spec("tabu", 5, 10), 1, false, 0,
                       [](SessionEvent&&) {})
                .status,
            SessionManager::StartStatus::ShuttingDown);
}

TEST(SessionManager, QueuePromotesInFifoOrderAndResultsMatchDirect) {
  SessionManager manager(
      SessionManager::Options{/*max_sessions=*/1, /*max_queued=*/8});
  std::mutex mutex;
  std::vector<std::uint64_t> done_order;
  std::vector<SolveResult> results;
  auto sink = [&](SessionEvent&& event) {
    if (event.kind != SessionEvent::Kind::Done) return;
    const std::lock_guard<std::mutex> lock(mutex);
    done_order.push_back(event.session);
    results.push_back(std::move(event.result));
  };

  // Occupy the single slot, then queue three short jobs behind it.
  const auto blocker = manager.start(highway_spec("tabu", 1, 50'000'000),
                                     /*owner=*/1, false, 0, sink);
  ASSERT_EQ(blocker.status, SessionManager::StartStatus::Started);
  std::vector<std::uint64_t> queued_ids;
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    const auto queued =
        manager.start(highway_spec("tabu", seed, 40), /*owner=*/1, false, 0, sink);
    ASSERT_EQ(queued.status, SessionManager::StartStatus::Queued);
    ASSERT_NE(queued.id, 0u);
    queued_ids.push_back(queued.id);
  }
  EXPECT_EQ(manager.queued_sessions(), 3u);
  EXPECT_EQ(manager.active_sessions(), 1u);

  // Free the slot; the queue drains in admission order.
  EXPECT_TRUE(manager.cancel(blocker.id));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (manager.sessions_finished() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.drain();

  ASSERT_EQ(done_order.size(), 4u);
  EXPECT_EQ(done_order[0], blocker.id);
  EXPECT_EQ(done_order[1], queued_ids[0]);
  EXPECT_EQ(done_order[2], queued_ids[1]);
  EXPECT_EQ(done_order[3], queued_ids[2]);
  EXPECT_EQ(manager.queued_sessions(), 0u);

  // A solve that waited in the queue is still bit-identical to a direct
  // same-seed solve — queueing delays work, it must not change it.
  const auto direct = solver::Solver().solve(highway_spec("tabu", 10, 40));
  expect_deterministic_fields_eq(results[1], direct);
}

TEST(SessionManager, DeadlineExpiresRunningSessionWithReason) {
  SessionManager manager;
  std::atomic<bool> done{false};
  SolveResult final_result;
  const auto started = manager.start(
      highway_spec("tabu", 2, 50'000'000), /*owner=*/1, false, 0,
      [&](SessionEvent&& event) {
        if (event.kind != SessionEvent::Kind::Done) return;
        final_result = std::move(event.result);
        done.store(true);
      },
      /*deadline_seconds=*/0.05);
  ASSERT_EQ(started.status, SessionManager::StartStatus::Started);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.drain();
  ASSERT_TRUE(done.load());
  // The watchdog cancelled it, and the reason says "out of time", not
  // "the client asked".
  EXPECT_EQ(final_result.stop_reason, StopReason::DeadlineExpired);
}

TEST(SessionManager, DeadlineExpiresQueuedSessionWithoutWaitingForSlot) {
  SessionManager manager(
      SessionManager::Options{/*max_sessions=*/1, /*max_queued=*/4});
  std::atomic<bool> queued_done{false};
  SolveResult queued_result;
  const auto blocker = manager.start(highway_spec("tabu", 1, 50'000'000),
                                     /*owner=*/1, false, 0,
                                     [](SessionEvent&&) {});
  ASSERT_EQ(blocker.status, SessionManager::StartStatus::Started);
  const auto queued = manager.start(
      highway_spec("tabu", 2, 40), /*owner=*/1, false, 0,
      [&](SessionEvent&& event) {
        if (event.kind != SessionEvent::Kind::Done) return;
        queued_result = std::move(event.result);
        queued_done.store(true);
      },
      /*deadline_seconds=*/0.05);
  ASSERT_EQ(queued.status, SessionManager::StartStatus::Queued);

  // The blocker never yields its slot, yet the queued session's deadline
  // still produces a prompt DeadlineExpired Done.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!queued_done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queued_done.load());
  EXPECT_EQ(queued_result.stop_reason, StopReason::DeadlineExpired);
  manager.drain();
}

// -- daemon end to end -------------------------------------------------------

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = fresh_socket_path();
    DaemonConfig config;
    config.unix_path = socket_path_;
    config.max_payload = 1u << 20;
    daemon_ = std::make_unique<Daemon>(config);
    std::string error;
    ASSERT_TRUE(daemon_->start(&error)) << error;
  }

  void TearDown() override {
    daemon_->stop();
    EXPECT_EQ(daemon_->active_sessions(), 0u) << "leaked sessions after drain";
    EXPECT_EQ(daemon_->sessions_started(), daemon_->sessions_finished());
  }

  Client connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(client.connect_unix(socket_path_, &error)) << error;
    return client;
  }

  std::string socket_path_;
  std::unique_ptr<Daemon> daemon_;
};

TEST_F(DaemonTest, HelloAdvertisesEnginesAndCircuits) {
  auto client = connect();
  std::string error;
  const auto welcome = client.hello(&error);
  ASSERT_TRUE(welcome.has_value()) << error;
  EXPECT_EQ(welcome->version, kProtocolVersion);
  EXPECT_EQ(welcome->server, "ptsd");
  EXPECT_EQ(welcome->engines, solver::engine_names());
  const auto& circuits = welcome->circuits;
  for (const char* name : {"highway", "c532", "scale10k"}) {
    EXPECT_NE(std::find(circuits.begin(), circuits.end(), name), circuits.end())
        << name;
  }
}

TEST_F(DaemonTest, ServedTabuSolveIsBitIdenticalToDirect) {
  auto client = connect();
  std::string error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;

  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.seed = 21;
  job.spec.tabu.iterations = 100;
  const auto session = client.submit(job, /*stream=*/false, 0, &error);
  ASSERT_TRUE(session.has_value()) << error;
  const auto served = client.wait(*session, nullptr, &error);
  ASSERT_TRUE(served.has_value()) << error;

  const auto direct = solver::Solver().solve(highway_spec("tabu", 21, 100));
  expect_deterministic_fields_eq(*served, direct);
}

TEST_F(DaemonTest, ServedParallelSimIsFullyBitIdentical) {
  auto client = connect();
  std::string error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;

  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "parallel-sim";
  job.spec.seed = 2;
  const auto session = client.submit(job, false, 0, &error);
  ASSERT_TRUE(session.has_value()) << error;
  const auto served = client.wait(*session, nullptr, &error);
  ASSERT_TRUE(served.has_value()) << error;

  auto spec = highway_spec("parallel-sim", 2, 200);
  spec.tabu = {};  // engine defaults, as the wire spec used
  const auto direct = solver::Solver().solve(spec);
  expect_deterministic_fields_eq(*served, direct);
  // The sim engine's clock is virtual, so even the time series and the
  // makespan must match bit-for-bit across the wire.
  expect_series_eq(served->best_vs_time, direct.best_vs_time);
  EXPECT_EQ(served->makespan, direct.makespan);
}

TEST_F(DaemonTest, StreamsProgressDuringSolve) {
  auto client = connect();
  std::string error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;

  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.seed = 9;
  job.spec.tabu.iterations = 120;
  const auto session = client.submit(job, /*stream=*/true, /*stride=*/10, &error);
  ASSERT_TRUE(session.has_value()) << error;

  std::size_t improvements = 0, ticks = 0;
  double last_best = 1e300;
  const auto result = client.wait(
      *session,
      [&](const ProgressMsg& progress) {
        EXPECT_EQ(progress.session, *session);
        if (progress.improvement) {
          // Improvements stream in decreasing best-cost order.
          EXPECT_LT(progress.best_cost, last_best);
          last_best = progress.best_cost;
          ++improvements;
        } else {
          ++ticks;
        }
      },
      &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_GT(improvements, 0u);
  EXPECT_GT(ticks, 0u);
  EXPECT_EQ(result->best_cost, last_best);
}

TEST_F(DaemonTest, CancelMidSolveDeliversCancelledResult) {
  auto client = connect();
  std::string error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;

  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.seed = 1;
  job.spec.tabu.iterations = 500'000'000;  // would run ~forever
  const auto session = client.submit(job, false, 0, &error);
  ASSERT_TRUE(session.has_value()) << error;

  bool was_active = false;
  ASSERT_TRUE(client.cancel(*session, &was_active, &error)) << error;
  EXPECT_TRUE(was_active);
  const auto result = client.wait(*session, nullptr, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->stop_reason, StopReason::Cancelled);
  EXPECT_GT(result->best_cost, 0.0);

  // Cancelling an unknown session reports inactive. (Re-cancelling the
  // finished one races its thread's final bookkeeping — Done is sinked
  // before `finished` is published — so only the unknown id is
  // deterministic here.)
  ASSERT_TRUE(client.cancel(*session + 1000, &was_active, &error)) << error;
  EXPECT_FALSE(was_active);
}

TEST_F(DaemonTest, SchemaViolationsAnswerErrorsAndConnectionSurvives) {
  auto client = connect();
  std::string error;

  // Submit before hello is a protocol-state error...
  JobRequest job;
  job.circuit = "highway";
  EXPECT_FALSE(client.submit(job, false, 0, &error).has_value());
  EXPECT_NE(error.find("hello"), std::string::npos);
  // ...but the connection survives and can complete the handshake.
  ASSERT_TRUE(client.hello(&error).has_value()) << error;

  // Unknown circuit.
  job.circuit = "no-such-circuit";
  EXPECT_FALSE(client.submit(job, false, 0, &error).has_value());
  EXPECT_NE(error.find("no-such-circuit"), std::string::npos);

  // Unknown engine (rejected by Solver::validate before any thread starts).
  job.circuit = "highway";
  job.spec.engine = "no-such-engine";
  EXPECT_FALSE(client.submit(job, false, 0, &error).has_value());
  EXPECT_NE(error.find("engine"), std::string::npos);

  // The same connection still serves a good job afterwards.
  job.spec.engine = "tabu";
  job.spec.tabu.iterations = 30;
  const auto session = client.submit(job, false, 0, &error);
  ASSERT_TRUE(session.has_value()) << error;
  EXPECT_TRUE(client.wait(*session, nullptr, &error).has_value()) << error;
}

TEST_F(DaemonTest, OutOfRangeGoalParametersAreRejectedAndDaemonKeepsServing) {
  // Each value round-trips the codec, and the engine would abort on it in
  // a session thread, so the daemon must refuse it at submit.
  auto client = connect();
  std::string error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;
  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.tabu.iterations = 30;
  for (const double value : {0.0, 1.0, 1.5}) {
    JobRequest bad = job;
    bad.spec.cost.target_improvement = value;
    EXPECT_FALSE(client.submit(bad, false, 0, &error).has_value()) << value;
    EXPECT_NE(error.find("invalid spec: cost.target_improvement must be in "
                         "(0, 1)"),
              std::string::npos)
        << error;
  }
  for (const double value : {1.0, -0.5}) {
    JobRequest bad = job;
    bad.spec.cost.initial_membership = value;
    EXPECT_FALSE(client.submit(bad, false, 0, &error).has_value()) << value;
    EXPECT_NE(error.find("invalid spec: cost.initial_membership must be in "
                         "[0, 1)"),
              std::string::npos)
        << error;
  }
  // These round-trip the codec too, and the engine would abort on the
  // first two (a PTS_CHECK) and throw std::bad_alloc on the third; the
  // last two would start about a million worker threads.
  JobRequest zero_tenure = job;
  zero_tenure.spec.tabu.tenure = 0;
  JobRequest zero_diversify_width = job;
  zero_diversify_width.spec.engine = "parallel-sim";
  zero_diversify_width.spec.parallel.diversify.width = 0;
  JobRequest huge_depth = job;
  huge_depth.spec.tabu.compound.depth = std::size_t{1} << 53;
  JobRequest many_tasks = job;
  many_tasks.spec.engine = "parallel-threaded";
  many_tasks.spec.parallel.num_tsws = 1000000;
  many_tasks.spec.parallel.clws_per_tsw = 1000000;
  JobRequest many_threads = job;
  many_threads.spec.engine = "parallel-shared";
  many_threads.spec.shared.threads = 1000000;
  for (const auto& [bad, message] :
       {std::pair{zero_tenure, "tabu.tenure must be >= 1"},
        std::pair{zero_diversify_width, "parallel.diversify.width must be >= 1"},
        std::pair{huge_depth, "tabu.compound.depth must be <= 1048576"},
        std::pair{many_tasks,
                  "parallel.num_tsws * (1 + parallel.clws_per_tsw) must be "
                  "<= 1024"},
        std::pair{many_threads, "shared.threads must be <= 1024"}}) {
    EXPECT_FALSE(client.submit(bad, false, 0, &error).has_value()) << message;
    EXPECT_NE(error.find(std::string("invalid spec: ") + message),
              std::string::npos)
        << error;
  }
  const auto session = client.submit(job, false, 0, &error);
  ASSERT_TRUE(session.has_value()) << error;
  const auto served = client.wait(*session, nullptr, &error);
  ASSERT_TRUE(served.has_value()) << error;
  expect_deterministic_fields_eq(
      *served, solver::Solver().solve(highway_spec("tabu", job.spec.seed, 30)));
}

TEST_F(DaemonTest, MalformedFrameDropsConnection) {
  const int fd = raw_connect(socket_path_);
  ASSERT_GE(fd, 0);
  // Not a ptsF header: the daemon must drop us without answering.
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(junk)));
  EXPECT_TRUE(reads_eof(fd)) << "daemon answered a malformed frame";
  ::close(fd);

  // The daemon itself is unharmed.
  auto client = connect();
  std::string error;
  EXPECT_TRUE(client.hello(&error).has_value()) << error;
}

TEST_F(DaemonTest, OversizedPayloadDropsConnection) {
  const int fd = raw_connect(socket_path_);
  ASSERT_GE(fd, 0);
  // Valid magic, hostile length (16 MiB > the fixture's 1 MiB cap).
  std::uint8_t header[pvm::kFrameHeaderBytes];
  const std::uint32_t magic = pvm::kFrameMagic;
  const std::int32_t tag = kHello;
  const std::uint32_t length = 16u << 20;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &tag, 4);
  std::memcpy(header + 8, &length, 4);
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  EXPECT_TRUE(reads_eof(fd)) << "daemon accepted an oversized frame";
  ::close(fd);
}

TEST_F(DaemonTest, DisconnectMidSolveCancelsOwnedSessions) {
  {
    auto client = connect();
    std::string error;
    ASSERT_TRUE(client.hello(&error).has_value()) << error;
    JobRequest job;
    job.circuit = "highway";
    job.spec.engine = "tabu";
    job.spec.tabu.iterations = 500'000'000;
    ASSERT_TRUE(client.submit(job, /*stream=*/true, 1, &error).has_value())
        << error;
    // Wait until the session is actually running server-side.
    while (daemon_->sessions_started() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }  // client destructor closes the socket mid-solve

  // The reader notices EOF, cancels this connection's sessions, and joins
  // them; shortly after, nothing is active. Poll both counters: a session
  // leaves the active set slightly before the finished counter is bumped.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((daemon_->active_sessions() != 0 ||
          daemon_->sessions_finished() != daemon_->sessions_started()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(daemon_->active_sessions(), 0u);
  EXPECT_EQ(daemon_->sessions_finished(), daemon_->sessions_started());
}

TEST_F(DaemonTest, ClientShutdownRequestDrainsDaemon) {
  // Plays the ptsd main(): a waiter thread performs the stop when the
  // request arrives (the reader thread cannot join itself).
  std::thread waiter([&] {
    daemon_->wait_for_stop_request();
    daemon_->stop();
  });
  auto client = connect();
  std::string error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;
  EXPECT_TRUE(client.shutdown_server(&error)) << error;
  waiter.join();
  EXPECT_EQ(daemon_->active_sessions(), 0u);
}

TEST_F(DaemonTest, ManySessionsAcrossConnectionsAllComplete) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kSessionsEach = 5;
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = connect();
      std::string error;
      ASSERT_TRUE(client.hello(&error).has_value()) << error;
      std::vector<std::uint64_t> ids;
      for (std::size_t s = 0; s < kSessionsEach; ++s) {
        JobRequest job;
        job.circuit = "highway";
        job.spec.engine = "tabu";
        job.spec.seed = c * 100 + s + 1;
        job.spec.tabu.iterations = 40;
        const auto id = client.submit(job, false, 0, &error);
        ASSERT_TRUE(id.has_value()) << error;
        ids.push_back(*id);
      }
      for (const auto id : ids) {
        const auto result = client.wait(id, nullptr, &error);
        ASSERT_TRUE(result.has_value()) << error;
        EXPECT_EQ(result->stop_reason, StopReason::Completed);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kClients * kSessionsEach);
  // The finished counter increments *after* the Done sink fires, so the
  // clients can observe every Done slightly before it reaches 20.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (daemon_->sessions_finished() < kClients * kSessionsEach &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(daemon_->sessions_finished(), kClients * kSessionsEach);
  EXPECT_EQ(daemon_->connections_accepted(), kClients);
}

TEST_F(DaemonTest, JobDeadlineExpiresOverdueSolveWithReason) {
  auto client = connect();
  std::string error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;

  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.seed = 1;
  job.spec.tabu.iterations = 500'000'000;  // would run ~forever
  job.deadline_seconds = 0.05;             // per-job deadline on the wire
  const auto session = client.submit(job, false, 0, &error);
  ASSERT_TRUE(session.has_value()) << error;
  const auto result = client.wait(*session, nullptr, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->stop_reason, StopReason::DeadlineExpired);
}

TEST(DaemonQueue, QueuedSubmissionsCompleteAndOverflowIsRejected) {
  DaemonConfig config;
  config.unix_path = fresh_socket_path();
  config.max_sessions = 1;
  config.max_queued = 2;
  Daemon daemon(config);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect_unix(config.unix_path, &error)) << error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;

  // Slot holder + two queued jobs; the kSubmitOk `queued` flag tells them
  // apart. A fourth submission overflows the queue with a reasoned error.
  JobRequest blocker;
  blocker.circuit = "highway";
  blocker.spec.engine = "tabu";
  blocker.spec.seed = 1;
  blocker.spec.tabu.iterations = 500'000'000;
  bool queued = true;
  const auto blocker_id = client.submit(blocker, false, 0, &error, &queued);
  ASSERT_TRUE(blocker_id.has_value()) << error;
  EXPECT_FALSE(queued);

  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.tabu.iterations = 40;
  std::vector<std::uint64_t> queued_ids;
  for (std::uint64_t seed = 10; seed < 12; ++seed) {
    job.spec.seed = seed;
    const auto id = client.submit(job, false, 0, &error, &queued);
    ASSERT_TRUE(id.has_value()) << error;
    EXPECT_TRUE(queued);
    queued_ids.push_back(*id);
  }
  job.spec.seed = 99;
  EXPECT_FALSE(client.submit(job, false, 0, &error).has_value());
  EXPECT_NE(error.find("queue full"), std::string::npos) << error;

  // Free the slot; the queued jobs complete bit-identical to direct solves.
  ASSERT_TRUE(client.cancel(*blocker_id, nullptr, &error)) << error;
  ASSERT_TRUE(client.wait(*blocker_id, nullptr, &error).has_value()) << error;
  for (std::size_t i = 0; i < queued_ids.size(); ++i) {
    const auto served = client.wait(queued_ids[i], nullptr, &error);
    ASSERT_TRUE(served.has_value()) << error;
    const auto direct =
        solver::Solver().solve(highway_spec("tabu", 10 + i, 40));
    expect_deterministic_fields_eq(*served, direct);
  }

  client.close();
  daemon.stop();
  EXPECT_EQ(daemon.active_sessions(), 0u);
  EXPECT_EQ(daemon.queued_sessions(), 0u);
}

TEST(DaemonChaos, RetriedSolvesAreBitIdenticalAndDrainLeaksNothing) {
  // A seeded fault storm on every socket syscall in the process — daemon
  // side included. The retrying client must still land every job, each
  // result must match a direct same-seed solve exactly, and the drain must
  // leave nothing behind.
  // Error rates are per *syscall* and hit both sides of every socket, so a
  // single attempt rolls the dice dozens of times; keep hard-error rates
  // low enough that a retry budget of 15 virtually always lands the job.
  // Short reads/writes only split transfers, so they can stay aggressive.
  fault::SocketFaultConfig fault_config;
  fault_config.read_error_rate = 0.02;
  fault_config.write_error_rate = 0.02;
  fault_config.short_read_rate = 0.2;
  fault_config.short_write_rate = 0.2;
  fault_config.connect_error_rate = 0.05;
  fault::ScopedFaultInjection injection(/*seed=*/42, fault_config);

  DaemonConfig config;
  config.unix_path = fresh_socket_path();
  Daemon daemon(config);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  RetryPolicy policy;
  policy.max_attempts = 15;
  policy.initial_backoff_seconds = 0.002;
  policy.max_backoff_seconds = 0.05;
  policy.connect_timeout_seconds = 5.0;
  // io timeout off: injected EAGAINs then retry in place instead of being
  // (mis)read as wall-clock timeouts, keeping the test deterministic-ish.
  policy.io_timeout_seconds = 0.0;
  RetryingClient retrying(config.unix_path, policy);

  std::size_t completed = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    JobRequest job;
    job.circuit = "highway";
    job.spec.engine = "tabu";
    job.spec.seed = seed;
    job.spec.tabu.iterations = 60;
    // No streaming: progress frames multiply the per-attempt syscall count
    // (and thus the fault surface) without adding coverage here.
    const auto served = retrying.solve(job, /*stream=*/false, /*stride=*/0,
                                       nullptr, &error);
    ASSERT_TRUE(served.has_value()) << "seed " << seed << ": " << error;
    const auto direct =
        solver::Solver().solve(highway_spec("tabu", seed, 60));
    expect_deterministic_fields_eq(*served, direct);
    ++completed;
  }
  EXPECT_EQ(completed, 6u);

  // The storm actually happened (the plan injected faults somewhere).
  const auto injected = injection.plan().counters();
  EXPECT_GT(injected.short_reads + injected.short_writes +
                injected.read_errors + injected.write_errors +
                injected.connect_errors,
            0u);

  retrying.raw_client().close();
  daemon.stop();
  EXPECT_EQ(daemon.active_sessions(), 0u);
  EXPECT_EQ(daemon.queued_sessions(), 0u);
  EXPECT_EQ(daemon.sessions_started(), daemon.sessions_finished());
}

TEST(DaemonTcp, ServesOverLoopbackTcp) {
  DaemonConfig config;
  config.tcp = true;
  config.tcp_port = 0;  // ephemeral
  Daemon daemon(config);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  ASSERT_NE(daemon.tcp_port(), 0);

  Client client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", daemon.tcp_port(), &error)) << error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;
  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.tabu.iterations = 30;
  const auto session = client.submit(job, false, 0, &error);
  ASSERT_TRUE(session.has_value()) << error;
  EXPECT_TRUE(client.wait(*session, nullptr, &error).has_value()) << error;
  client.close();
  daemon.stop();
  EXPECT_EQ(daemon.active_sessions(), 0u);
}

// -- result cache (ECO mode) -------------------------------------------------

TEST(Codec, CacheKeyCanonicalizesDeadlineAndGatesOnDeterminism) {
  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.seed = 9;
  EXPECT_TRUE(spec_cacheable(job));

  // The deadline shapes when a job is killed, not what it computes: two
  // submissions differing only there share one cache entry.
  JobRequest with_deadline = job;
  with_deadline.deadline_seconds = 30.0;
  EXPECT_EQ(cache_key(job, 0xABCDULL), cache_key(with_deadline, 0xABCDULL));

  // Anything that changes the computed result changes the key.
  JobRequest other_seed = job;
  other_seed.spec.seed = 10;
  EXPECT_NE(cache_key(job, 0xABCDULL), cache_key(other_seed, 0xABCDULL));
  EXPECT_NE(cache_key(job, 0xABCDULL), cache_key(job, 0xABCEULL));
  JobRequest warm = job;
  warm.spec.initial_slots = {2, 1, 0};
  EXPECT_NE(cache_key(job, 0xABCDULL), cache_key(warm, 0xABCDULL));

  // Wall-clock stops and the real-thread engine are not cacheable.
  JobRequest timed = job;
  timed.spec.stop.max_seconds = 5.0;
  EXPECT_FALSE(spec_cacheable(timed));
  JobRequest threaded = job;
  threaded.spec.engine = "parallel-threaded";
  EXPECT_FALSE(spec_cacheable(threaded));
}

TEST(SessionManager, CachesDeterministicResultsWithLruEviction) {
  SessionManager::Options options;
  options.cache_entries = 2;
  SessionManager manager(options);

  struct Done {
    SolveResult result;
    Payload payload;
  };
  const auto run = [&](std::uint64_t seed, const std::string& key) {
    std::promise<Done> promise;
    auto future = promise.get_future();
    const auto started = manager.start(
        highway_spec("tabu", seed, 40), /*owner=*/1, /*stream=*/false, 0,
        [&promise](SessionEvent&& event) {
          if (event.kind == SessionEvent::Kind::Done) {
            promise.set_value({std::move(event.result), std::move(event.payload)});
          }
        },
        /*deadline_seconds=*/0.0, key);
    EXPECT_EQ(started.status, SessionManager::StartStatus::Started);
    return future.get();
  };

  const Done first = run(1, "job-a");
  EXPECT_EQ(manager.cache_size(), 1u);
  // The Done payload is the result encoded once, in an exact-size buffer.
  ASSERT_NE(first.payload, nullptr);
  EXPECT_EQ(*first.payload, encode_result(first.result));
  EXPECT_EQ(first.payload->capacity(), first.payload->size());
  EXPECT_EQ(manager.cache_bytes(), first.payload->size());

  // A hit returns the very buffer the Done event carried (shared, not
  // copied), which decodes to the bit-identical result.
  const auto hit = manager.cached_result("job-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), first.payload.get());
  std::string error;
  const auto decoded = decode_result(**hit, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  expect_deterministic_fields_eq(*decoded, first.result);
  EXPECT_EQ(manager.cache_hits(), 1u);
  EXPECT_FALSE(manager.cached_result("job-b").has_value());
  EXPECT_EQ(manager.cache_misses(), 1u);

  // Fill past the bound: "job-a" was just touched, so "job-b" (older) is
  // the LRU victim when "job-d" lands. cache_bytes() follows every insert
  // and eviction exactly.
  const Done b = run(2, "job-b");
  EXPECT_EQ(manager.cache_bytes(), first.payload->size() + b.payload->size());
  run(1, "job-a");  // deterministic repeat; refreshes recency, no new entry
  EXPECT_EQ(manager.cache_size(), 2u);
  EXPECT_EQ(manager.cache_bytes(), first.payload->size() + b.payload->size());
  const Done d = run(3, "job-d");
  EXPECT_EQ(manager.cache_size(), 2u);
  EXPECT_EQ(manager.cache_bytes(),
            encode_result(first.result).size() + encode_result(d.result).size());
  EXPECT_TRUE(manager.cached_result("job-a").has_value());
  EXPECT_TRUE(manager.cached_result("job-d").has_value());
  EXPECT_FALSE(manager.cached_result("job-b").has_value());

  // Sessions without a key never populate the cache.
  run(4, "");
  EXPECT_EQ(manager.cache_size(), 2u);
  manager.drain();
}

TEST(DaemonCache, RepeatSubmissionIsServedBitIdenticallyWithoutASession) {
  DaemonConfig config;
  config.unix_path = fresh_socket_path();
  config.cache_entries = 8;
  Daemon daemon(config);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect_unix(config.unix_path, &error)) << error;
  ASSERT_TRUE(client.hello(&error).has_value()) << error;

  JobRequest job;
  job.circuit = "highway";
  job.spec.engine = "tabu";
  job.spec.seed = 77;
  job.spec.tabu.iterations = 80;

  // First submission solves for real (a cache miss).
  bool cached = false;
  const auto first_session =
      client.submit(job, /*stream=*/false, 0, &error, nullptr, 0, &cached);
  ASSERT_TRUE(first_session.has_value()) << error;
  EXPECT_FALSE(cached);
  const auto first = client.wait(*first_session, nullptr, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_EQ(daemon.cache_misses(), 1u);
  EXPECT_EQ(daemon.cache_size(), 1u);

  // The repeat is answered from the cache: no new session, bit-identical
  // result, even with a different deadline (canonicalized out of the key).
  const std::uint64_t sessions_before = daemon.sessions_started();
  JobRequest repeat = job;
  repeat.deadline_seconds = 120.0;
  const auto second_session =
      client.submit(repeat, /*stream=*/false, 0, &error, nullptr, 0, &cached);
  ASSERT_TRUE(second_session.has_value()) << error;
  EXPECT_TRUE(cached);
  EXPECT_EQ(*second_session, 0u);
  const auto second = client.wait(*second_session, nullptr, &error);
  ASSERT_TRUE(second.has_value()) << error;
  expect_deterministic_fields_eq(*second, *first);
  EXPECT_EQ(second->makespan, first->makespan);  // replay, not re-run
  EXPECT_EQ(daemon.sessions_started(), sessions_before);
  EXPECT_EQ(daemon.cache_hits(), 1u);

  // A different seed is a different key: miss, new session.
  JobRequest other = job;
  other.spec.seed = 78;
  const auto third_session =
      client.submit(other, /*stream=*/false, 0, &error, nullptr, 0, &cached);
  ASSERT_TRUE(third_session.has_value()) << error;
  EXPECT_FALSE(cached);
  ASSERT_TRUE(client.wait(*third_session, nullptr, &error).has_value()) << error;
  EXPECT_EQ(daemon.cache_misses(), 2u);
  EXPECT_EQ(daemon.cache_size(), 2u);

  client.close();
  daemon.stop();
  EXPECT_EQ(daemon.active_sessions(), 0u);
}

// -- repeated daemon lifetimes -----------------------------------------------

/// Threads of this process, counted from /proc/self/task.
std::size_t thread_count() {
  std::size_t count = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    ::closedir(dir);
  }
  return count;
}

/// The thread count once it has held still for 50 ms (5 s at most). A
/// thread that was just joined, here or in an earlier test of this
/// process, can stay listed in /proc for a moment after join returns.
std::size_t settled_thread_count() {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::size_t count = thread_count();
  auto still_since = Clock::now();
  while (Clock::now() - still_since < std::chrono::milliseconds(50) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::size_t now = thread_count();
    if (now != count) {
      count = now;
      still_since = Clock::now();
    }
  }
  return count;
}

// Every daemon lifetime gives back what it took: after a daemon that served
// misses and hits on three connections is destroyed, the thread count is
// back to its baseline and every session it started has finished.
TEST(DaemonCycles, RepeatedLifetimesReturnThreadsAndSessions) {
  constexpr int kCycles = 5;
  constexpr std::size_t kConnections = 3;
  const std::size_t baseline = settled_thread_count();
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    {
      DaemonConfig config;
      config.unix_path = fresh_socket_path();
      config.cache_entries = 16;
      Daemon daemon(config);
      std::string error;
      ASSERT_TRUE(daemon.start(&error)) << error;

      std::vector<std::thread> connections;
      for (std::size_t c = 0; c < kConnections; ++c) {
        connections.emplace_back([&, c] {
          Client client;
          std::string err;
          ASSERT_TRUE(client.connect_unix(config.unix_path, &err)) << err;
          ASSERT_TRUE(client.hello(&err).has_value()) << err;
          // Two seeds, each submitted twice: a miss, then a cache hit.
          std::vector<SolveResult> results;
          for (const std::uint64_t seed : {10 * c + 1, 10 * c + 2, 10 * c + 1,
                                           10 * c + 2}) {
            JobRequest job;
            job.circuit = "c532";
            job.spec.engine = "tabu";
            job.spec.seed = seed;
            job.spec.tabu.iterations = 30;
            bool cached = false;
            const auto id =
                client.submit(job, false, 0, &err, nullptr, 0, &cached);
            ASSERT_TRUE(id.has_value()) << err;
            EXPECT_EQ(cached, results.size() >= 2);
            auto result = client.wait(*id, nullptr, &err);
            ASSERT_TRUE(result.has_value()) << err;
            results.push_back(std::move(*result));
          }
          expect_deterministic_fields_eq(results[2], results[0]);
          expect_deterministic_fields_eq(results[3], results[1]);
        });
      }
      for (auto& connection : connections) connection.join();
      daemon.stop();
      EXPECT_EQ(daemon.sessions_started(), daemon.sessions_finished());
      EXPECT_EQ(daemon.sessions_started(), 2 * kConnections);
      EXPECT_EQ(daemon.cache_hits(), 2 * kConnections);
      EXPECT_EQ(daemon.active_sessions(), 0u);
    }
    // A joined thread can linger in /proc for a moment after join returns.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (thread_count() != baseline &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(thread_count(), baseline) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace pts::service
