// The fallible .net parsing path (netlist/io.hpp try_* entry points) and
// content hashing.
//
// The serving layer feeds untrusted bytes into the parser, so the core
// contract here is "malformed input is an error value, never process
// death": a corruption fuzz pass applies seeded mutations to valid .net
// text and requires every parse to return (ok or error) without aborting.
// The happy path pins the exact-round-trip guarantee — write → parse →
// write is a fixed point (same ids, same pin order, bit-identical doubles)
// — which is also what makes content_hash usable as a cache key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "netlist/generator.hpp"
#include "netlist/io.hpp"
#include "netlist/netlist.hpp"
#include "support/rng.hpp"

namespace pts::netlist {
namespace {

GeneratorConfig small_config(std::uint64_t seed) {
  GeneratorConfig config;
  config.name = "io-test";
  config.num_gates = 40;
  config.num_primary_inputs = 6;
  config.num_primary_outputs = 5;
  config.seed = seed;
  return config;
}

// -- exact round-trip --------------------------------------------------------

TEST(NetlistIoTest, WriteParseWriteIsAFixedPoint) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234567ULL}) {
    const Netlist original = generate_circuit(small_config(seed));
    const std::string text = to_net_format(original);

    const ParseResult parsed = try_parse_netlist_string(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const Netlist& reparsed = *parsed.netlist;

    // Same ids in the same order, same pin order, bit-identical doubles:
    // the canonical serialization must reproduce byte for byte.
    EXPECT_EQ(to_net_format(reparsed), text) << "seed " << seed;
    EXPECT_EQ(content_hash(reparsed), content_hash(original));

    ASSERT_EQ(reparsed.num_cells(), original.num_cells());
    ASSERT_EQ(reparsed.num_nets(), original.num_nets());
    for (CellId c = 0; c < original.num_cells(); ++c) {
      EXPECT_EQ(reparsed.cell(c).name, original.cell(c).name);
      EXPECT_EQ(reparsed.cell(c).kind, original.cell(c).kind);
      EXPECT_EQ(reparsed.cell(c).width, original.cell(c).width);
      EXPECT_EQ(reparsed.cell(c).intrinsic_delay, original.cell(c).intrinsic_delay);
      EXPECT_EQ(reparsed.cell(c).load_factor, original.cell(c).load_factor);
    }
    for (NetId n = 0; n < original.num_nets(); ++n) {
      const auto got = reparsed.topology().pins(n);
      const auto want = original.topology().pins(n);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "net " << n;
      EXPECT_EQ(reparsed.net(n).driver, original.net(n).driver);
      EXPECT_EQ(reparsed.net(n).weight, original.net(n).weight);
    }
  }
}

TEST(NetlistIoTest, ContentHashSeparatesCircuits) {
  const Netlist a = generate_circuit(small_config(1));
  const Netlist b = generate_circuit(small_config(2));
  EXPECT_NE(content_hash(a), content_hash(b));
  // Regenerating with the same config is bit-identical, so hashes agree.
  const Netlist a2 = generate_circuit(small_config(1));
  EXPECT_EQ(content_hash(a), content_hash(a2));
}

// -- structured malformed inputs --------------------------------------------

struct BadCase {
  const char* label;
  const char* text;
  const char* expect_substring;
};

TEST(NetlistIoTest, MalformedInputReturnsErrorWithContext) {
  const BadCase cases[] = {
      {"unknown keyword", "circuit c\npi a\nfoo bar\n", "unknown keyword"},
      {"unknown cell in net", "circuit c\npi a\npo z\nnet n 1 a ghost\n",
       "unknown cell"},
      {"duplicate cell name", "circuit c\npi a\npi a\n", "duplicate name"},
      {"duplicate net name",
       "circuit c\npi a\npi b\npo y\npo z\nnet n 1 a y\nnet n 1 b z\n",
       "duplicate name"},
      {"cells before circuit", "pi a\ncircuit c\n", "circuit line must precede"},
      {"po drives a net", "circuit c\npi a\npo z\nnet n 1 z a\n", "cannot drive"},
      {"pi as sink", "circuit c\npi a\npi b\nnet n 1 a b\n", "cannot be a net sink"},
      {"cell driving two nets",
       "circuit c\npi a\npo y\npo z\nnet n1 1 a y\nnet n2 1 a z\n",
       "already drives"},
      {"po sunk twice",
       "circuit c\npi a\npi b\npo z\nnet n1 1 a z\nnet n2 1 b z\n",
       "exactly one"},
      {"self-loop",
       "circuit c\npi a\ngate g 1 1.0 0.1\npo z\nnet n 1 g g z\n", "self-loop"},
      {"net with no sinks", "circuit c\npi a\nnet n 1 a\n", "net"},
      {"non-finite weight", "circuit c\npi a\npo z\nnet n inf a z\n", ""},
      {"nan delay", "circuit c\ngate g 1 nan 0.1\n", ""},
      {"overflowing number", "circuit c\ngate g 1 1e999 0.1\n", ""},
      {"trailing junk number", "circuit c\ngate g 1 1.5x 0.1\n", ""},
      {"missing gate fields", "circuit c\ngate g 1\n", ""},
      {"missing circuit name", "circuit\n", ""},
      {"cycle",
       "circuit c\npi a\ngate g1 2 1.0 0.1\ngate g2 1 1.0 0.1\npo z\n"
       "net na 1 a g1\nnet n1 1 g1 g2\nnet n2 1 g2 g1 z\n",
       "cycle"},
  };
  for (const BadCase& c : cases) {
    const ParseResult result = try_parse_netlist_string(c.text);
    EXPECT_FALSE(result.ok()) << c.label;
    EXPECT_FALSE(result.error.empty()) << c.label;
    if (c.expect_substring[0] != '\0') {
      EXPECT_NE(result.error.find(c.expect_substring), std::string::npos)
          << c.label << ": got '" << result.error << "'";
    }
  }
}

// -- corruption fuzzing ------------------------------------------------------

/// One seeded mutation of `text`: delete / duplicate / garble a span, or
/// truncate. Plain byte surgery — no knowledge of the grammar — so the
/// result exercises arbitrary breakage, not just anticipated cases.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  if (out.empty()) return out;
  switch (rng.below(5)) {
    case 0: {  // delete one byte
      out.erase(rng.below(out.size()), 1);
      break;
    }
    case 1: {  // overwrite a byte with printable noise
      out[rng.below(out.size())] =
          static_cast<char>('!' + rng.below(94));
      break;
    }
    case 2: {  // duplicate a line
      const std::size_t pos = rng.below(out.size());
      const std::size_t line_start = out.rfind('\n', pos);
      const std::size_t begin = line_start == std::string::npos ? 0 : line_start + 1;
      std::size_t end = out.find('\n', pos);
      if (end == std::string::npos) end = out.size();
      const std::string line = out.substr(begin, end - begin) + "\n";
      out.insert(begin, line);
      break;
    }
    case 3: {  // truncate mid-stream
      out.resize(rng.below(out.size()));
      break;
    }
    default: {  // splice a hostile token over a span
      static const char* kTokens[] = {"nan", "-inf", "1e999", "net", "gate",
                                      "\"", "-1", "18446744073709551616"};
      const std::size_t pos = rng.below(out.size());
      out.replace(pos, rng.below(8) + 1, kTokens[rng.below(8)]);
      break;
    }
  }
  return out;
}

TEST(NetlistIoTest, SeededCorruptionNeverAborts) {
  const Netlist nl = generate_circuit(small_config(3));
  const std::string text = to_net_format(nl);
  Rng rng(0xC0441234ULL);
  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = text;
    // Stack 1–3 mutations so multi-error inputs get coverage too.
    const std::size_t rounds = 1 + rng.below(3);
    for (std::size_t i = 0; i < rounds; ++i) corrupted = mutate(corrupted, rng);
    // The whole point: this call must return, never abort. Either outcome
    // is legal (a mutated comment still parses); a failure must carry a
    // message.
    const ParseResult result = try_parse_netlist_string(corrupted);
    if (!result.ok()) {
      EXPECT_FALSE(result.error.empty());
      ++rejected;
    }
  }
  // Sanity: the mutator is actually breaking things most of the time.
  EXPECT_GT(rejected, 100);
}

// -- file round-trip and unopenable paths ------------------------------------

TEST(NetlistIoTest, FileRoundTripAndOpenFailures) {
  const Netlist nl = generate_circuit(small_config(9));
  const std::string path =
      ::testing::TempDir() + "pts_io_test_roundtrip.net";

  ASSERT_EQ(try_save_netlist_file(nl, path), "");
  const ParseResult loaded = try_load_netlist_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(to_net_format(*loaded.netlist), to_net_format(nl));
  std::remove(path.c_str());

  const ParseResult missing =
      try_load_netlist_file("/nonexistent-dir-pts/io_test.net");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("io_test.net"), std::string::npos);

  const std::string unwritable =
      try_save_netlist_file(nl, "/nonexistent-dir-pts/io_test.net");
  EXPECT_FALSE(unwritable.empty());
}

// -- the trusted wrappers keep the abort contract ----------------------------

TEST(NetlistIoDeathTest, AbortWrappersStillAbortOnBadInput) {
  EXPECT_DEATH(parse_netlist_string("circuit c\nfoo\n"), "unknown keyword");
  EXPECT_DEATH(load_netlist_file("/nonexistent-dir-pts/io_test.net"),
               "io_test.net");
}

}  // namespace
}  // namespace pts::netlist
