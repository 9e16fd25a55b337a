// Pins the serving layer's JSON from outside the codec.
//
// WireCorpus: the exact bytes of encoded specs, results and checkpoints,
// as a table of byte length plus FNV-1a 64 per document. The table was
// captured from the DOM-based codec that the streaming writer replaced, so
// a writer change that moves one byte fails here. Wall-clock fields
// (makespan, best_vs_time x, a checkpoint's elapsed_seconds) are zeroed
// before encoding; everything else is a deterministic function of the job.
//
// ReaderLanguage: which documents the strict reader accepts and what it
// makes of them, and the exact error text of the ones it rejects. The
// expectations were captured from the same DOM-based reader, so the
// one-pass reader must accept exactly its language: members in any order,
// last duplicate wins, the same number scan, the depth cap, and the same
// error text and byte offsets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/workloads.hpp"
#include "service/codec.hpp"
#include "solver/checkpoint.hpp"
#include "solver/solver.hpp"

namespace pts::service {
namespace {

using solver::Checkpoint;
using solver::SolveResult;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void zero_wall_clock(SolveResult& result) {
  result.makespan = 0.0;
  for (double& x : result.best_vs_time.x) x = 0.0;
}

JobRequest corpus_job(const std::string& circuit, const std::string& engine) {
  JobRequest job;
  job.circuit = circuit;
  job.spec.engine = engine;
  job.spec.seed = 3;
  job.spec.tabu.iterations = 25;
  job.spec.anneal.moves_per_temp = 40;
  job.spec.local.max_iterations = 60;
  job.spec.parallel.num_tsws = 2;
  job.spec.parallel.local_iterations = 3;
  job.spec.parallel.global_iterations = 3;
  job.spec.shared.threads = 3;
  job.spec.stop.max_iterations = engine == "anneal" ? 300 : 0;
  return job;
}

SolveResult solve(const JobRequest& job) {
  solver::SolveSpec spec = job.spec;
  spec.netlist = &experiments::circuit(job.circuit);
  SolveResult result = solver::Solver().solve(spec);
  zero_wall_clock(result);
  return result;
}

enum class DocKind { Spec, Result, Checkpoint };

struct Doc {
  std::string name;
  DocKind kind;
  std::string bytes;
};

const std::vector<Doc>& corpus() {
  static const std::vector<Doc> docs = [] {
    std::vector<Doc> out;
    for (const char* circuit : {"highway", "c532"}) {
      for (const char* engine : {"tabu", "anneal", "local", "parallel-sim",
                                 "parallel-shared", "constructive"}) {
        const JobRequest job = corpus_job(circuit, engine);
        const std::string name = std::string(engine) + "/" + circuit;
        out.push_back({"spec:" + name, DocKind::Spec, encode_spec(job)});
        out.push_back(
            {"result:" + name, DocKind::Result, encode_result(solve(job))});
      }
    }
    // A warm start (non-empty initial_slots) and a target cost with a
    // deadline: the spec members the cold jobs leave at their defaults.
    JobRequest warm = corpus_job("c532", "tabu");
    warm.spec.initial_slots = solve(corpus_job("c532", "local")).best_slots;
    out.push_back({"spec:tabu/c532/warm", DocKind::Spec, encode_spec(warm)});
    out.push_back(
        {"result:tabu/c532/warm", DocKind::Result, encode_result(solve(warm))});
    JobRequest target = corpus_job("highway", "tabu");
    target.spec.stop.target_cost = 0.5;
    target.spec.stop.target_quality = 0.25;
    target.deadline_seconds = 12.5;
    out.push_back({"spec:tabu/highway/target", DocKind::Spec, encode_spec(target)});

    for (const std::size_t stop_at : {5u, 12u, 20u}) {
      JobRequest job = corpus_job("c532", "tabu");
      job.spec.stop.max_iterations = stop_at;
      job.spec.netlist = &experiments::circuit(job.circuit);
      Checkpoint ck = solver::solve_with_checkpoint(job.spec).checkpoint;
      ck.elapsed_seconds = 0.0;
      for (double& x : ck.best_vs_time.x) x = 0.0;
      out.push_back({"checkpoint:tabu/c532/" + std::to_string(stop_at),
                     DocKind::Checkpoint, solver::encode_checkpoint(ck)});
    }
    return out;
  }();
  return docs;
}

/// Decodes `text` as a `kind` document and encodes the value again; nullopt
/// (with `error` set) when it does not decode.
std::optional<std::string> reencode(DocKind kind, const std::string& text,
                                    std::string& error) {
  switch (kind) {
    case DocKind::Spec:
      if (const auto job = decode_spec(text, &error)) return encode_spec(*job);
      return std::nullopt;
    case DocKind::Result:
      if (const auto result = decode_result(text, &error)) {
        return encode_result(*result);
      }
      return std::nullopt;
    case DocKind::Checkpoint: {
      Checkpoint ck;
      error = solver::decode_checkpoint(text, &ck);
      if (!error.empty()) return std::nullopt;
      return solver::encode_checkpoint(ck);
    }
  }
  return std::nullopt;
}

struct Pin {
  const char* name;
  std::size_t size;
  std::uint64_t fnv;
};

// Captured from the DOM-based codec (see the file comment).
constexpr Pin kPins[] = {
    {"spec:tabu/highway", 750, 0x31d3f926a15390bbULL},
    {"result:tabu/highway", 2334, 0x6384e6c1fb72938fULL},
    {"spec:anneal/highway", 754, 0x158484c464f13dcfULL},
    {"result:anneal/highway", 1117, 0x72f86816d5312504ULL},
    {"spec:local/highway", 751, 0x8b516fd6ff62be04ULL},
    {"result:local/highway", 2030, 0xe6b0fbdf82ee985aULL},
    {"spec:parallel-sim/highway", 758, 0x5b90f10fff32162aULL},
    {"result:parallel-sim/highway", 995, 0xade63d00788e3d2aULL},
    {"spec:parallel-shared/highway", 761, 0x12fc6875d6fee9f0ULL},
    {"result:parallel-shared/highway", 2345, 0x76c0bcd3382a7fc8ULL},
    {"spec:constructive/highway", 758, 0x484d28d814d0ec9aULL},
    {"result:constructive/highway", 710, 0x849556ed18e96185ULL},
    {"spec:tabu/c532", 747, 0x54e4cebe5d5e80cfULL},
    {"result:tabu/c532", 3654, 0x3ff9a8fff2570dfeULL},
    {"spec:anneal/c532", 751, 0x0a5be30cdc5d0a43ULL},
    {"result:anneal/c532", 2734, 0x1bb2e8abcd258f97ULL},
    {"spec:local/c532", 748, 0x67ccbc7c48e89748ULL},
    {"result:local/c532", 3345, 0x6dfd252b551b6b11ULL},
    {"spec:parallel-sim/c532", 755, 0x7b2d6573869671deULL},
    {"result:parallel-sim/c532", 2314, 0x6ef49433b88bb302ULL},
    {"spec:parallel-shared/c532", 758, 0x0ca26c28b77d38c4ULL},
    {"result:parallel-shared/c532", 3665, 0x3afc12186b9a49d1ULL},
    {"spec:constructive/c532", 755, 0x43afe23469b5ddc6ULL},
    {"result:constructive/c532", 2040, 0x4e33bdea0cc1ad57ULL},
    {"spec:tabu/c532/warm", 2265, 0x0a6e6835dcfb0d31ULL},
    {"result:tabu/c532/warm", 3692, 0x4b76d3ab1ebf3af8ULL},
    {"spec:tabu/highway/target", 752, 0x4dc94e83ab6785b3ULL},
    {"checkpoint:tabu/c532/5", 6112, 0x911b5d542a04b4aeULL},
    {"checkpoint:tabu/c532/12", 6609, 0xcf4e7515eae274f1ULL},
    {"checkpoint:tabu/c532/20", 7127, 0xfde9af0a19978a86ULL},
};

TEST(WireCorpus, EncodedBytesMatchThePinnedTable) {
  const auto& docs = corpus();
  ASSERT_EQ(docs.size(), std::size(kPins));
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const Doc& doc = docs[i];
    const Pin& pin = kPins[i];
    EXPECT_EQ(doc.name, pin.name);
    EXPECT_TRUE(doc.bytes.size() == pin.size && fnv1a64(doc.bytes) == pin.fnv)
        << "{\"" << doc.name << "\", " << doc.bytes.size() << ", 0x" << std::hex
        << fnv1a64(doc.bytes) << "ULL},";
  }
}

TEST(WireCorpus, DecodedDocumentsReencodeToTheSameBytes) {
  for (const Doc& doc : corpus()) {
    std::string error;
    const auto again = reencode(doc.kind, doc.bytes, error);
    ASSERT_TRUE(again.has_value()) << doc.name << ": " << error;
    EXPECT_EQ(*again, doc.bytes) << doc.name;
  }
}

// -- reader language ---------------------------------------------------------

std::string scan_string(std::string_view text, std::size_t& pos) {
  const std::size_t start = pos++;
  while (text[pos] != '"') pos += text[pos] == '\\' ? 2 : 1;
  ++pos;
  return std::string(text.substr(start, pos - start));
}

/// Reverses the member order of every object in the value at `pos`, which
/// must be compact encoder output (no whitespace).
std::string reverse_members(std::string_view text, std::size_t& pos) {
  const char c = text[pos];
  if (c == '"') return scan_string(text, pos);
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++pos;
    std::vector<std::string> parts;
    while (text[pos] != close) {
      std::string part;
      if (c == '{') {
        part = scan_string(text, pos);
        part += text[pos++];  // ':'
      }
      part += reverse_members(text, pos);
      parts.push_back(std::move(part));
      if (text[pos] == ',') ++pos;
    }
    ++pos;
    if (c == '{') std::reverse(parts.begin(), parts.end());
    std::string out(1, c);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += ',';
      out += parts[i];
    }
    return out + close;
  }
  const std::size_t start = pos;
  while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
         text[pos] != ']') {
    ++pos;
  }
  return std::string(text.substr(start, pos - start));
}

std::string reversed(std::string_view text) {
  std::size_t pos = 0;
  return reverse_members(text, pos);
}

TEST(ReaderLanguage, MembersInAnyOrderAtEveryLevel) {
  for (const Doc& doc : corpus()) {
    const std::string text = reversed(doc.bytes);
    ASSERT_NE(text, doc.bytes) << doc.name;
    std::string error;
    const auto again = reencode(doc.kind, text, error);
    ASSERT_TRUE(again.has_value()) << doc.name << ": " << error;
    EXPECT_EQ(*again, doc.bytes) << doc.name;
  }
}

/// One spec document and what the reader makes of it: either the exact
/// error, or (error empty) the job it must decode to, given as an edit of
/// a default job on circuit c532.
struct SpecCase {
  const char* what;
  std::string text;
  std::string error;
  std::function<void(JobRequest&)> expect;
};

std::string nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(ReaderLanguage, SpecTable) {
  const auto none = [](JobRequest&) {};
  const SpecCase cases[] = {
      {"minimal", R"({"circuit":"c532"})", "", none},
      {"duplicate key: last wins", R"({"circuit":"c532","seed":1,"seed":2})", "",
       [](JobRequest& j) { j.spec.seed = 2; }},
      {"duplicate key: a bad first value is replaced",
       R"({"circuit":7,"circuit":"c532"})", "", none},
      {"duplicate key: a bad last value is an error",
       R"({"circuit":"c532","circuit":7})", "spec: circuit must be a string",
       none},
      {"nested duplicate resets an optional",
       R"({"circuit":"c532","stop":{"target_cost":1,"target_cost":null}})", "",
       none},
      {"duplicate unknown key", R"({"circuit":"c532","x":1,"x":2})",
       "spec: unknown key 'x'", none},
      {"uint 01", R"({"circuit":"c532","seed":01})", "",
       [](JobRequest& j) { j.spec.seed = 1; }},
      {"uint .5", R"({"circuit":"c532","seed":.5})",
       "spec: seed must be a non-negative integer", none},
      {"uint -0", R"({"circuit":"c532","seed":-0})", "",
       [](JobRequest& j) { j.spec.seed = 0; }},
      {"uint 1E5", R"({"circuit":"c532","seed":1E5})", "",
       [](JobRequest& j) { j.spec.seed = 100000; }},
      {"uint 1e+05", R"({"circuit":"c532","seed":1e+05})", "",
       [](JobRequest& j) { j.spec.seed = 100000; }},
      {"uint array 1e+05 and 01",
       R"({"circuit":"c532","initial_slots":[0,1e+05,01]})", "",
       [](JobRequest& j) { j.spec.initial_slots = {0, 100000, 1}; }},
      {"uint 2^53", R"({"circuit":"c532","seed":9007199254740992})", "",
       [](JobRequest& j) { j.spec.seed = 9007199254740992ULL; }},
      {"uint past 2^53 rounds to it",
       R"({"circuit":"c532","seed":9007199254740993})", "",
       [](JobRequest& j) { j.spec.seed = 9007199254740992ULL; }},
      {"uint 2^53 + 2", R"({"circuit":"c532","seed":9007199254740994})",
       "spec: seed must be a non-negative integer", none},
      {"uint 2^32 in a u64 field",
       R"({"circuit":"c532","tabu":{"tenure":4294967296}})", "",
       [](JobRequest& j) { j.spec.tabu.tenure = 4294967296ULL; }},
      {"uint over its element type",
       R"({"circuit":"c532","initial_slots":[1,4294967296]})",
       "spec: initial_slots elements must each be an integer in [0, 4294967295]",
       none},
      {"uint negative", R"({"circuit":"c532","seed":-1})",
       "spec: seed must be a non-negative integer", none},
      {"uint fraction", R"({"circuit":"c532","seed":1.5})",
       "spec: seed must be a non-negative integer", none},
      {"double 1e999", R"({"circuit":"c532","cost":{"beta":1e999}})",
       "invalid number (at byte 33)", none},
      {"double 1e-999", R"({"circuit":"c532","cost":{"beta":1e-999}})",
       "invalid number (at byte 33)", none},
      {"double +1", R"({"circuit":"c532","cost":{"beta":+1}})",
       "invalid number (at byte 33)", none},
      {"double 0x10", R"({"circuit":"c532","cost":{"beta":0x10}})",
       "expected ',' or '}' in object (at byte 34)", none},
      {"double 1e+05", R"({"circuit":"c532","cost":{"beta":1e+05}})", "",
       [](JobRequest& j) { j.spec.cost.beta = 100000.0; }},
      {"double -0", R"({"circuit":"c532","cost":{"beta":-0}})", "",
       [](JobRequest& j) { j.spec.cost.beta = -0.0; }},
      {"double 1.", R"({"circuit":"c532","cost":{"beta":1.}})", "",
       [](JobRequest& j) { j.spec.cost.beta = 1.0; }},
      {"double 1-2", R"({"circuit":"c532","cost":{"beta":1-2}})",
       "invalid number (at byte 33)", none},
      {"double 0.1234567890123456789",
       R"({"circuit":"c532","cost":{"beta":0.1234567890123456789}})", "",
       [](JobRequest& j) { j.spec.cost.beta = 0.1234567890123456789; }},
      {"16 digits", R"({"circuit":"c532","seed":1234567890123456})", "",
       [](JobRequest& j) { j.spec.seed = 1234567890123456ULL; }},
      {"bool as number", R"({"circuit":"c532","tabu":{"aspiration":1}})",
       "spec.tabu: aspiration must be a boolean", none},
      {"null for a double", R"({"circuit":"c532","cost":{"beta":null}})",
       "spec.cost: beta must be a finite number", none},
      {"string escapes", R"({"circuit":"c532","engine":"t\/abu"})", "",
       [](JobRequest& j) { j.spec.engine = "t/abu"; }},
      {"surrogate pair", R"({"circuit":"c532","engine":"😀"})", "",
       [](JobRequest& j) { j.spec.engine = "\xf0\x9f\x98\x80"; }},
      {"lone high surrogate", R"({"circuit":"c532","engine":"\ud800"})",
       "lone surrogate (at byte 34)", none},
      {"lone low surrogate", R"({"circuit":"c532","engine":"\udc00x"})",
       "lone surrogate (at byte 34)", none},
      {"bad escape", R"({"circuit":"c532","engine":"\q"})",
       "invalid escape character (at byte 30)", none},
      {"truncated \\u", R"({"circuit":"c532","engine":"\u12)",
       "truncated \\u escape (at byte 30)", none},
      {"raw control character", "{\"circuit\":\"c5\n32\"}",
       "raw control character in string (at byte 15)", none},
      {"unterminated string", R"({"circuit":"c532)",
       "unterminated string (at byte 16)", none},
      {"trailing garbage", R"({"circuit":"c532"} x)",
       "trailing characters after document (at byte 19)", none},
      {"whitespace everywhere", " {\t\"circuit\" :\r\n\"c532\" , \"seed\" : 4 } ",
       "", [](JobRequest& j) { j.spec.seed = 4; }},
      {"depth 64", R"({"circuit":"c532","x":)" + nested(63) + "}",
       "spec: unknown key 'x'", none},
      {"depth 65", R"({"circuit":"c532","x":)" + nested(64) + "}",
       "nesting too deep (at byte 85)", none},
      {"syntax error after a schema error", R"({"circuit":7,)",
       "expected string (at byte 13)", none},
      {"first schema error wins",
       R"({"seed":"x","circuit":7,"tabu":{"tenure":-1}})",
       "spec: circuit must be a string", none},
      {"nested error path",
       R"({"circuit":"c532","tabu":{"compound":{"width":"w"}}})",
       "spec.tabu.compound: width must be a non-negative integer", none},
      {"not an object", R"([1,2])", "spec: expected an object", none},
      {"nested not an object", R"({"circuit":"c532","stop":[]})",
       "spec: stop must be an object", none},
      {"missing circuit", R"({"seed":1})", "spec: 'circuit' is required", none},
      {"empty document", "", "unexpected end of input (at byte 0)", none},
      {"bare literal prefix",
       R"({"circuit":"c532","tabu":{"aspiration":tru}})",
       "invalid literal (at byte 39)", none},
      {"missing colon", R"({"circuit" "c532"})",
       "expected ':' in object (at byte 11)", none},
      {"trailing comma", R"({"circuit":"c532",})",
       "expected string (at byte 18)", none},
      {"array trailing comma", R"({"circuit":"c532","initial_slots":[1,]})",
       "invalid number (at byte 37)", none},
  };
  for (const SpecCase& c : cases) {
    std::string error;
    const auto decoded = decode_spec(c.text, &error);
    if (!c.error.empty()) {
      EXPECT_FALSE(decoded.has_value()) << c.what;
      EXPECT_EQ(error, c.error) << c.what;
      continue;
    }
    if (!decoded) {
      ADD_FAILURE() << c.what << ": rejected with \"" << error << "\"";
      continue;
    }
    JobRequest expected;
    expected.circuit = "c532";
    c.expect(expected);
    EXPECT_EQ(encode_spec(*decoded), encode_spec(expected)) << c.what;
  }
}

/// One edit of a corpus result or checkpoint and the exact error it
/// causes; an empty error means the edited text still decodes to the
/// unedited document.
struct EditCase {
  const char* doc;
  std::string from;
  std::string to;
  std::string error;
};

TEST(ReaderLanguage, ResultAndCheckpointEditTable) {
  const EditCase cases[] = {
      {"result:tabu/c532", R"("stop_reason":")", R"("stop_reason":"x)",
       "result: stop_reason: unknown value 'xcompleted'"},
      {"result:tabu/c532", R"("best_slots":[)", R"("best_slots":[-1,)",
       "result: best_slots elements must each be an integer in [0, 4294967295]"},
      {"result:tabu/c532", R"("cost_trace":{)", R"("cost_trace":{"bogus":0,)",
       "result.cost_trace: unknown key 'bogus'"},
      {"result:tabu/c532", R"("cost_trace":{"name":"cost","x":[)",
       R"("cost_trace":{"name":"cost","x":[7,)",
       "result.cost_trace: x and y lengths differ"},
      {"result:tabu/c532", R"("stats":{"iterations":)",
       R"("stats":{"iterations":0.5,"iterations":)", ""},
      {"result:tabu/c532", R"("converged":false})", R"("converged":false)",
       "expected ',' or '}' in object (at byte 3653)"},
      {"checkpoint:tabu/c532/5", R"("version":1)", R"("version":2)",
       "checkpoint: unsupported version"},
      {"checkpoint:tabu/c532/5", R"("has_spare":)", R"("has_spare_":)",
       "checkpoint.search.rng: has_spare is required"},
      {"checkpoint:tabu/c532/5", R"("tabu_entries":[)",
       R"("tabu_entries":[[1],)",
       "checkpoint.search: tabu_entries must hold [a, b] cell-id pairs"},
      {"checkpoint:tabu/c532/5", R"("seed":")", R"("seed":"g)",
       "checkpoint: seed must be a hex u64 string"},
      {"checkpoint:tabu/c532/5", R"("s":[")", R"("s":["0",")",
       "checkpoint.search.rng: s must be an array of 4 hex u64 strings"},
      {"checkpoint:tabu/c532/5", R"("best_cost":)", R"("best_cost":null,"x":)",
       "checkpoint.search: best_cost must be a finite number"},
      {"checkpoint:tabu/c532/5", R"("eval":{)", R"("eval":{"slots":{},)", ""},
      {"checkpoint:tabu/c532/5", R"("eval":{)", R"("eval":[)",
       "checkpoint: invalid JSON: expected ',' or ']' in array (at byte 129)"},
  };
  const auto& docs = corpus();
  for (const EditCase& c : cases) {
    const auto doc = std::find_if(docs.begin(), docs.end(),
                                  [&](const Doc& d) { return d.name == c.doc; });
    ASSERT_NE(doc, docs.end()) << c.doc;
    std::string text = doc->bytes;
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.doc << ": " << c.from;
    text.replace(at, c.from.size(), c.to);
    std::string error;
    const auto again = reencode(doc->kind, text, error);
    EXPECT_EQ(error, c.error) << c.doc << ": " << c.to;
    if (c.error.empty()) {
      ASSERT_TRUE(again.has_value()) << c.doc << ": " << c.to;
      EXPECT_EQ(*again, doc->bytes) << c.doc << ": " << c.to;
    }
  }
}

}  // namespace
}  // namespace pts::service
