// Unit tests for src/support: RNG, statistics, series, tables, CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace pts {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 500; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMeanAndSpread) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, DistinctPairNeverEqual) {
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const auto [a, b] = rng.distinct_pair(5);
    EXPECT_NE(a, b);
    EXPECT_LT(a, 5u);
    EXPECT_LT(b, 5u);
  }
}

TEST(Rng, DistinctPairIsUniformOverPairs) {
  Rng rng(17);
  std::map<std::pair<std::size_t, std::size_t>, int> counts;
  const int draws = 30000;
  for (int i = 0; i < draws; ++i) counts[rng.distinct_pair(4)]++;
  EXPECT_EQ(counts.size(), 12u);  // 4*3 ordered pairs
  for (const auto& [pair, count] : counts) {
    (void)pair;
    EXPECT_NEAR(count, draws / 12.0, draws / 12.0 * 0.2);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(23);
  Rng child_a = parent.fork(1);
  Rng child_b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += child_a.next() == child_b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(31), p2(31);
  Rng c1 = p1.fork(5), c2 = p2.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1.next(), c2.next());
}

TEST(RunningStats, MatchesNaiveComputation) {
  Rng rng(1);
  std::vector<double> samples;
  RunningStats stats;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-5.0, 20.0);
    samples.push_back(x);
    stats.add(x);
  }
  const double mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
                      static_cast<double>(samples.size());
  double var = 0.0;
  for (double x : samples) var += (x - mean) * (x - mean);
  var /= static_cast<double>(samples.size() - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-9);
  EXPECT_NEAR(stats.variance(), var, 1e-9);
  EXPECT_EQ(stats.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(stats.max(), *std::max_element(samples.begin(), samples.end()));
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(2);
  RunningStats all, left, right;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_NEAR(b.mean(), 2.0, 1e-12);
}

TEST(Quantile, KnownValues) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_NEAR(quantile(v, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(quantile(v, 0.5), 3.0, 1e-12);
  EXPECT_NEAR(quantile(v, 1.0), 5.0, 1e-12);
  EXPECT_NEAR(quantile(v, 0.25), 2.0, 1e-12);
}

TEST(Series, FirstXReaching) {
  Series s;
  s.add(0.0, 10.0);
  s.add(1.0, 8.0);
  s.add(2.0, 5.0);
  s.add(3.0, 5.0);
  EXPECT_EQ(s.first_x_reaching(9.0), 1.0);
  EXPECT_EQ(s.first_x_reaching(5.0), 2.0);
  EXPECT_EQ(s.first_x_reaching(4.0), -1.0);
  EXPECT_EQ(s.first_x_reaching(100.0), 0.0);
}

TEST(Series, DownsampleKeepsEndpoints) {
  Series s;
  for (int i = 0; i <= 100; ++i) s.add(i, 100 - i);
  const Series d = s.downsample(11);
  EXPECT_EQ(d.size(), 11u);
  EXPECT_EQ(d.x.front(), 0.0);
  EXPECT_EQ(d.x.back(), 100.0);
  EXPECT_EQ(d.y.front(), 100.0);
  EXPECT_EQ(d.y.back(), 0.0);
}

TEST(Series, LastAndMin) {
  Series s;
  s.add(0, 3);
  s.add(1, 1);
  s.add(2, 2);
  EXPECT_EQ(s.last_y(), 2.0);
  EXPECT_EQ(s.min_y(), 1.0);
}

TEST(Table, AlignedOutputAndCsv) {
  Table t({"circuit", "cost"});
  t.add_row(std::vector<std::string>{"highway", "0.33"});
  t.add_row(std::vector<double>{1.5, 2.25}, 2);
  const std::string text = t.to_string();
  EXPECT_NE(text.find("circuit"), std::string::npos);
  EXPECT_NE(text.find("highway"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("csv,circuit,cost"), std::string::npos);
  EXPECT_NE(csv.find("csv,highway,0.33"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, SeriesTableAlignsOnX) {
  Series a;
  a.name = "a";
  a.add(1, 10);
  a.add(2, 20);
  Series b;
  b.name = "b";
  b.add(2, 200);
  b.add(3, 300);
  const Table t = series_table("x", {a, b}, 0);
  EXPECT_EQ(t.rows(), 3u);  // union of x = {1, 2, 3}
}

TEST(Cli, ParsesOptionsFlagsAndPositionals) {
  // Note: a bare flag followed by a non-option token would consume it as a
  // value, so `--quick` goes last (documented parser behaviour).
  const char* argv[] = {"prog",    "--circuit", "c532",  "positional",
                        "--n=8",   "--ratio",   "0.5",   "--quick"};
  Cli cli(8, argv);
  EXPECT_EQ(cli.get("circuit", ""), "c532");
  EXPECT_TRUE(cli.get_flag("quick"));
  EXPECT_FALSE(cli.get_flag("missing"));
  EXPECT_EQ(cli.get_int("n", 0), 8);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
  EXPECT_EQ(cli.get_int("absent", -3), -3);
}

TEST(Cli, FlagFalseValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  Cli cli(5, argv);
  EXPECT_FALSE(cli.get_flag("a"));
  EXPECT_FALSE(cli.get_flag("b"));
  EXPECT_FALSE(cli.get_flag("c"));
  EXPECT_TRUE(cli.get_flag("d"));
}

TEST(Cli, UnusedTracksUnqueriedOptions) {
  const char* argv[] = {"prog", "--used", "1", "--unused", "2"};
  Cli cli(5, argv);
  (void)cli.get("used", "");
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

// Only ordering invariants are asserted — they hold under arbitrary
// scheduler preemption, unlike wall-clock bounds, which flake in CI.
TEST(Stopwatch, ElapsedIsNonNegativeAndMonotonic) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  // millis() read between two seconds() reads must land between them.
  const double ms = sw.millis();
  const double t2 = sw.seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(ms, t1 * 1e3);
  EXPECT_LE(ms, t2 * 1e3);
}

TEST(Stopwatch, ResetRestartsTheClock) {
  Stopwatch outer;
  Stopwatch inner;  // started after outer
  // Reads are sequenced explicitly: the earlier-started watch is read
  // second, so its elapsed time is strictly the larger of the two
  // regardless of how long anything in between takes.
  const double inner_elapsed = inner.seconds();
  const double outer_elapsed = outer.seconds();
  EXPECT_LE(inner_elapsed, outer_elapsed);
  outer.reset();  // now outer is the most recently started watch
  const double outer_after_reset = outer.seconds();
  const double inner_after_reset = inner.seconds();
  EXPECT_LE(outer_after_reset, inner_after_reset);
}

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(log_level()) {}
  ~LogLevelGuard() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Log, ThresholdFiltersLowerLevels) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::Warn);
  EXPECT_EQ(log_level(), LogLevel::Warn);

  ::testing::internal::CaptureStderr();
  log_info("tag") << "dropped info line";
  log_warn("tag") << "kept warn line";
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("dropped info line"), std::string::npos);
  EXPECT_NE(err.find("kept warn line"), std::string::npos);
}

TEST(Log, TagAndLevelAppearInOutput) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::Info);

  ::testing::internal::CaptureStderr();
  log_error("tsw3") << "engine stalled";
  log_info() << "untagged line";
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[ERROR] (tsw3) engine stalled"), std::string::npos);
  EXPECT_NE(err.find("[INFO] untagged line"), std::string::npos);
}

/// Streams as its value and counts how often it was formatted.
struct CountedField {
  int* formats;
};
std::ostream& operator<<(std::ostream& os, const CountedField& field) {
  ++*field.formats;
  return os << "field";
}

TEST(Log, FilteredLineFormatsNothing) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::Warn);
  int formats = 0;
  ::testing::internal::CaptureStderr();
  log_info("tag") << "dropped " << CountedField{&formats};
  log_debug() << CountedField{&formats} << CountedField{&formats};
  EXPECT_EQ(formats, 0);
  log_warn("tag") << "kept " << CountedField{&formats};
  EXPECT_EQ(formats, 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err, "[WARN] (tag) kept field\n");
}

TEST(Log, OffSilencesEverything) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::Off);
  ::testing::internal::CaptureStderr();
  log_error("tag") << "should not appear";
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Check, PassingChecksAreSilent) {
  PTS_CHECK(1 + 1 == 2);
  PTS_CHECK_MSG(true, "never printed");
  PTS_DCHECK(true);
}

TEST(CheckDeath, FailedCheckAbortsWithExpression) {
  EXPECT_DEATH(PTS_CHECK(2 + 2 == 5), "2 \\+ 2 == 5");
}

TEST(CheckDeath, FailedCheckMsgIncludesTheMessage) {
  EXPECT_DEATH(PTS_CHECK_MSG(false, "tenure must be positive"),
               "tenure must be positive");
}

TEST(CheckDeath, DcheckTracksBuildMode) {
#ifdef NDEBUG
  PTS_DCHECK(false);  // compiled out in release builds
#else
  EXPECT_DEATH(PTS_DCHECK(false), "PTS_CHECK failed");
#endif
}

}  // namespace
}  // namespace pts
