#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bytes.h"
#include "util/checked.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/table.h"

namespace avis::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// kMaxAbsGaussian's derivation: the smallest nonzero s the polar method can
// draw is 2^-104 (u, v are multiples of 2^-52), |u| <= sqrt(s), and
// |u| * sqrt(-2 ln s / s) = sqrt(-2 ln s) grows as s shrinks, so the extreme
// draw is the transform at s = 2^-104 with |u| = sqrt(s).
TEST(Rng, GaussianMagnitudeBoundCoversTheExtremePolarDraw) {
  const double s = std::ldexp(1.0, -104);
  const double u = std::sqrt(s);
  const double extreme = u * std::sqrt(-2.0 * std::log(s) / s);
  EXPECT_GT(extreme, 12.0);
  EXPECT_LE(extreme, Rng::kMaxAbsGaussian);
  // Every draw of a long stream stays inside the bound too.
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) ASSERT_LE(std::abs(rng.next_gaussian()), Rng::kMaxAbsGaussian);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, ForkedStreamsAreIndependentOfParentDraws) {
  Rng parent1(5);
  Rng parent2(5);
  Rng fork1 = parent1.fork(3);
  // Parent 2 draws before forking; fork identity depends only on parent
  // state at fork time, which differs -> streams differ.
  parent2.next_u64();
  Rng fork2 = parent2.fork(3);
  EXPECT_NE(fork1.next_u64(), fork2.next_u64());
}

TEST(Rng, ChanceProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.u16(), WireError);
}

TEST(Bytes, EmptyStringRoundTrip) {
  ByteWriter w;
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
}

TEST(Bytes, NegativeDoubleRoundTrip) {
  ByteWriter w;
  w.f64(-0.0);
  w.f64(-1e308);
  ByteReader r(w.bytes());
  EXPECT_EQ(std::signbit(r.f64()), true);
  EXPECT_DOUBLE_EQ(r.f64(), -1e308);
}

TEST(Checked, NarrowAcceptsFittingValues) {
  EXPECT_EQ(narrow<std::uint8_t>(200), 200);
  EXPECT_EQ(narrow<int>(12345L), 12345);
}

TEST(Checked, NarrowRejectsOverflow) {
  EXPECT_THROW(narrow<std::uint8_t>(300), InvariantError);
  EXPECT_THROW(narrow<std::uint8_t>(-1), InvariantError);
}

TEST(Checked, ExpectsThrowsOnFalse) {
  EXPECT_NO_THROW(expects(true, "fine"));
  EXPECT_THROW(expects(false, "boom"), InvariantError);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"a", "bbbb"});
  t.add("x", 1);
  t.add("long-cell", 2.5);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a         | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("long-cell"), std::string::npos);
  EXPECT_NE(out.find("2.50"), std::string::npos);
}

TEST(Logger, SinkReceivesEnabledLevels) {
  auto& logger = Logger::instance();
  const LogLevel old_level = logger.level();
  std::vector<std::string> captured;
  logger.set_level(LogLevel::kInfo);
  logger.set_sink([&](LogLevel, std::string_view msg) { captured.emplace_back(msg); });
  log_debug() << "hidden";
  log_info() << "visible " << 42;
  logger.set_sink(nullptr);
  logger.set_level(old_level);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "visible 42");
}

}  // namespace
}  // namespace avis::util
