#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "nexus/common/bit_ops.hpp"
#include "nexus/common/fixed_ring.hpp"
#include "nexus/common/flags.hpp"
#include "nexus/common/inline_vec.hpp"
#include "nexus/common/rng.hpp"
#include "nexus/common/stats.hpp"
#include "nexus/common/table.hpp"

namespace nexus {
namespace {

// ---------- bit_ops ----------

TEST(BitOps, BitsExtractsInclusiveRange) {
  EXPECT_EQ(bits(0xABCD, 3, 0), 0xDu);
  EXPECT_EQ(bits(0xABCD, 7, 4), 0xCu);
  EXPECT_EQ(bits(0xABCD, 15, 12), 0xAu);
  EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
}

TEST(BitOps, XorFoldMatchesPaperFormula) {
  // addr(19..15) ^ addr(14..10) ^ addr(9..5) ^ addr(4..0)
  const std::uint64_t addr = 0xF5ACAu;  // 1111_0101_1010_1100_1010
  const std::uint64_t expect =
      ((addr >> 15) & 0x1F) ^ ((addr >> 10) & 0x1F) ^ ((addr >> 5) & 0x1F) ^ (addr & 0x1F);
  EXPECT_EQ(xor_fold20_5(addr), expect);
}

TEST(BitOps, XorFoldIgnoresHighBits) {
  // The paper observes application addresses differ only in the low 20 bits;
  // the fold must be insensitive to everything above bit 19.
  EXPECT_EQ(xor_fold20_5(0x12345), xor_fold20_5(0xFFF0000012345ULL & 0xFFFFF0012345ULL));
  EXPECT_EQ(xor_fold20_5(0xABC12345ULL), xor_fold20_5(0x12345ULL));
}

TEST(BitOps, XorFoldRange) {
  for (std::uint64_t a = 0; a < 4096; ++a) EXPECT_LT(xor_fold20_5(a * 977), 32u);
}

TEST(BitOps, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(256));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(ceil_pow2(5), 8u);
  EXPECT_EQ(log2_pow2(1024), 10u);
}

// ---------- FixedRing ----------

TEST(FixedRing, FifoOrderAndWraparound) {
  FixedRing<int> r(3);
  EXPECT_TRUE(r.empty());
  r.push(1);
  r.push(2);
  r.push(3);
  EXPECT_TRUE(r.full());
  EXPECT_FALSE(r.try_push(4));
  EXPECT_EQ(r.pop(), 1);
  EXPECT_TRUE(r.try_push(4));
  EXPECT_EQ(r.pop(), 2);
  EXPECT_EQ(r.pop(), 3);
  EXPECT_EQ(r.pop(), 4);
  EXPECT_TRUE(r.empty());
}

TEST(FixedRing, AtInspectsWithoutPopping) {
  FixedRing<int> r(4);
  r.push(10);
  r.push(20);
  EXPECT_EQ(r.at(0), 10);
  EXPECT_EQ(r.at(1), 20);
  EXPECT_EQ(r.size(), 2u);
}

TEST(FixedRing, StressWraparound) {
  FixedRing<std::size_t> r(7);
  std::size_t next_in = 0;
  std::size_t next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (!r.full()) r.push(next_in++);
    const std::size_t drain = 1 + static_cast<std::size_t>(round % 7);
    for (std::size_t i = 0; i < drain && !r.empty(); ++i) {
      EXPECT_EQ(r.pop(), next_out++);
    }
  }
}

// ---------- InlineVec ----------

TEST(InlineVec, BasicOps) {
  InlineVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 3);
}

TEST(InlineVec, Equality) {
  InlineVec<int, 4> a{1, 2, 3};
  InlineVec<int, 4> b{1, 2, 3};
  InlineVec<int, 4> c{1, 2};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ---------- RNG ----------

TEST(Rng, Deterministic) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 g(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Xoshiro256 g(123);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(g.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalMedian) {
  Xoshiro256 g(99);
  Percentiles p;
  for (int i = 0; i < 50000; ++i) p.add(g.lognormal(std::log(100.0), 0.5));
  EXPECT_NEAR(p.quantile(0.5), 100.0, 5.0);
}

// ---------- Stats ----------

TEST(Stats, AccumulatorBasics) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Stats, BalanceReportPerfect) {
  const BalanceReport r = balance_report({100, 100, 100, 100});
  EXPECT_DOUBLE_EQ(r.max_over_mean, 1.0);
  EXPECT_DOUBLE_EQ(r.cv, 0.0);
}

TEST(Stats, BalanceReportSkewed) {
  const BalanceReport r = balance_report({400, 0, 0, 0});
  EXPECT_DOUBLE_EQ(r.max_over_mean, 4.0);
  EXPECT_GT(r.cv, 1.0);
}

// ---------- Flags ----------

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"prog",  "--cores=8", "--freq",    "55.56",
                        "--csv", "--seed=-3", "--rate=4e6"};
  const std::map<std::string, std::string> spec = {
      {"cores", ""}, {"freq", ""}, {"csv", ""}, {"seed", ""}, {"rate", ""}};
  Flags f(7, argv, spec);
  EXPECT_EQ(f.get_int("cores", 0), 8);
  EXPECT_EQ(f.get_int("seed", 0), -3);
  EXPECT_NEAR(f.get_double("freq", 0.0), 55.56, 1e-9);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 4e6);
  EXPECT_TRUE(f.get_bool("csv", false));
  EXPECT_EQ(f.get_int("absent", 17), 17);
}

TEST(Flags, ParsesIntList) {
  const char* argv[] = {"prog", "--cores=1,2,4,8"};
  Flags f(2, argv, {{"cores", ""}});
  const auto v = f.get_int_list("cores", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[3], 8);
}

using FlagsDeathTest = ::testing::Test;

// A numeric value must parse whole: no digits, or trailing characters,
// exit 2 with the same usage message an unknown flag gets.
TEST(FlagsDeathTest, RejectsMalformedNumbers) {
  const std::map<std::string, std::string> spec = {{"cores", ""},
                                                    {"freq", ""}};
  auto get_int = [&spec](const char* arg) {
    const char* argv[] = {"prog", arg};
    (void)Flags(2, argv, spec).get_int("cores", 0);
  };
  auto get_double = [&spec](const char* arg) {
    const char* argv[] = {"prog", arg};
    (void)Flags(2, argv, spec).get_double("freq", 0.0);
  };
  auto get_list = [&spec](const char* arg) {
    const char* argv[] = {"prog", arg};
    (void)Flags(2, argv, spec).get_int_list("cores", {});
  };
  const auto exit2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(get_int("--cores=8x"), exit2, "malformed flag: --cores=8x");
  EXPECT_EXIT(get_int("--cores=abc"), exit2, "malformed flag: --cores=abc");
  EXPECT_EXIT(get_int("--cores="), exit2, "malformed flag: --cores=");
  EXPECT_EXIT(get_int("--cores=1e6"), exit2, "malformed flag");
  EXPECT_EXIT(get_double("--freq=55.5MHz"), exit2, "malformed flag");
  EXPECT_EXIT(get_double("--freq=fast"), exit2, "malformed flag");
  EXPECT_EXIT(get_list("--cores=4,x"), exit2, "malformed flag: --cores=4,x");
  EXPECT_EXIT(get_list("--cores=4,8y"), exit2, "supported flags:");
}

// ---------- TextTable ----------

TEST(TextTable, AlignsAndCsv) {
  TextTable t({"bench", "tasks", "speedup"});
  t.add_row({"c-ray", "1200", "194.00"});
  t.add_row({"h264dec-1x1-10f", "139961", "6.90"});
  const std::string s = t.str();
  EXPECT_NE(s.find("c-ray"), std::string::npos);
  EXPECT_NE(s.find("139961"), std::string::npos);
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("bench,tasks,speedup"), std::string::npos);
  EXPECT_NE(csv.find("c-ray,1200,194.00"), std::string::npos);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::integer(42), "42");
}

}  // namespace
}  // namespace nexus
