// The statistical rule behind bench_serving's overhead gates
// (PairedOverheadGate, bench/bench_util.h), checked on synthetic pairs with
// a known shift: a gate that fails on noise is a bug, and so is one that
// cannot see a real overhead.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"

namespace pqsda::bench {
namespace {

// `pairs` interleaved (off, on) p95s around 4 ms: each side carries its own
// uniform +/-10% noise and the on side is shifted by `shift_pct`.
void SyntheticPairs(double shift_pct, size_t pairs, uint32_t seed,
                    std::vector<double>* off, std::vector<double>* on) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-0.10, 0.10);
  for (size_t i = 0; i < pairs; ++i) {
    off->push_back(4000.0 * (1.0 + noise(rng)));
    on->push_back(4000.0 * (1.0 + shift_pct / 100.0) * (1.0 + noise(rng)));
  }
}

TEST(PairedOverheadGateTest, RealShiftFailsAndNoiseAlonePasses) {
  for (uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    std::vector<double> off, on;
    SyntheticPairs(/*shift_pct=*/5.0, /*pairs=*/1000, seed, &off, &on);
    const OverheadVerdict shifted = PairedOverheadGate(off, on, 2.0, 50.0);
    EXPECT_EQ(shifted.pairs, 1000u);
    EXPECT_NEAR(shifted.budget_pct, 3.25, 0.1);  // 2% + 50us of ~4 ms
    EXPECT_GT(shifted.lower_bound_pct, shifted.budget_pct);
    EXPECT_FALSE(shifted.pass);

    off.clear();
    on.clear();
    SyntheticPairs(/*shift_pct=*/0.0, /*pairs=*/1000, seed, &off, &on);
    const OverheadVerdict flat = PairedOverheadGate(off, on, 2.0, 50.0);
    EXPECT_LE(flat.lower_bound_pct, flat.median_overhead_pct);
    EXPECT_TRUE(flat.pass);
  }
}

// A handful of pairs with the same +/-10% noise cannot pin a 0% shift's
// median under 2%, but the bootstrap bound keeps the gate from failing.
TEST(PairedOverheadGateTest, FewNoisyPairsDoNotFailAFlatComparison) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::vector<double> off, on;
    SyntheticPairs(/*shift_pct=*/0.0, /*pairs=*/10, seed, &off, &on);
    EXPECT_TRUE(PairedOverheadGate(off, on, 2.0, 50.0).pass);
  }
}

TEST(PairedOverheadGateTest, SameInputSameVerdictAndNoPairsFails) {
  std::vector<double> off, on;
  SyntheticPairs(/*shift_pct=*/3.0, /*pairs=*/12, /*seed=*/9, &off, &on);
  const OverheadVerdict a = PairedOverheadGate(off, on, 2.0, 50.0);
  const OverheadVerdict b = PairedOverheadGate(off, on, 2.0, 50.0);
  EXPECT_EQ(a.lower_bound_pct, b.lower_bound_pct);
  EXPECT_EQ(a.pass, b.pass);
  EXPECT_FALSE(PairedOverheadGate({}, {}, 2.0, 50.0).pass);
}

TEST(PairedOverheadGateTest, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(MedianOf({}), 0.0);
  EXPECT_EQ(MedianOf({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(MedianOf({4.0, 1.0, 3.0, 2.0}), 2.5);
}

}  // namespace
}  // namespace pqsda::bench
