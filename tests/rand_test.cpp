// Unit and statistical tests for src/rand: determinism, stream
// independence, the distributional correctness of every sampler, and the
// golden stream test pinning the in-tree engine to std::mt19937_64.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "engine/job.hpp"
#include "rand/distributions.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace npd::rand {
namespace {

// ----------------------------------------------------------------- engine

TEST(RngTest, SameSeedSameStream) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DeriveIsDeterministic) {
  const Rng parent(777);
  Rng child1 = parent.derive(5);
  Rng child2 = parent.derive(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child1(), child2());
  }
}

TEST(RngTest, DeriveWithDifferentTagsDiverges) {
  const Rng parent(777);
  Rng child1 = parent.derive(1);
  Rng child2 = parent.derive(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1() == child2()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DeriveDoesNotAdvanceParent) {
  Rng parent(99);
  Rng reference(99);
  (void)parent.derive(1);
  (void)parent.derive(2);
  EXPECT_EQ(parent(), reference());
}

TEST(RngTest, SplitMix64KnownValues) {
  // Reference values from the canonical SplitMix64 implementation
  // (Steele, Lea, Flood 2014) seeded at 0 and 1.
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(1), 0x910A2DEC89025CC1ULL);
}

TEST(RngTest, UniformIndexInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const Index v = rng.uniform_index(17);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 17);
  }
}

TEST(RngTest, UniformIndexCoversSupport) {
  Rng rng(4);
  std::set<Index> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.uniform_index(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliDegenerateCases) {
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMeanIsP) {
  Rng rng(7);
  const int trials = 20000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  // 5-sigma band around 0.3 at 20k trials: ±0.016.
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.017);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(8);
  const int trials = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double v = rng.gaussian(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / trials;
  const double var = sum_sq / trials - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.07);   // 5 sigma ≈ 0.067
  EXPECT_NEAR(var, 9.0, 0.45);
}

TEST(RngTest, GaussianZeroStddevIsDeterministic) {
  Rng rng(9);
  EXPECT_DOUBLE_EQ(rng.gaussian(5.0, 0.0), 5.0);
}

// ------------------------------------------------------------- binomial

TEST(DistributionsTest, BinomialDegenerateCases) {
  Rng rng(10);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100);
}

TEST(DistributionsTest, BinomialMomentsMatch) {
  Rng rng(11);
  const int trials = 20000;
  const Index n = 50;
  const double p = 0.3;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto v = static_cast<double>(binomial(rng, n, p));
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / trials;
  const double var = sum_sq / trials - mean * mean;
  EXPECT_NEAR(mean, 15.0, 0.15);           // np = 15, 5σ ≈ 0.11
  EXPECT_NEAR(var, 10.5, 0.8);             // np(1-p) = 10.5
}

TEST(DistributionsTest, BinomialRejectsBadArgs) {
  Rng rng(12);
  EXPECT_THROW((void)binomial(rng, -1, 0.5), ContractViolation);
  EXPECT_THROW((void)binomial(rng, 10, -0.1), ContractViolation);
  EXPECT_THROW((void)binomial(rng, 10, 1.1), ContractViolation);
}

// ----------------------------------------------------------- multinomial

TEST(DistributionsTest, MultinomialCountsSumToTrials) {
  Rng rng(13);
  const std::vector<double> probs{0.1, 0.2, 0.3, 0.4};
  for (int i = 0; i < 100; ++i) {
    const auto counts = multinomial(rng, 1000, probs);
    ASSERT_EQ(counts.size(), probs.size());
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), Index{0}), 1000);
  }
}

TEST(DistributionsTest, MultinomialMeansMatch) {
  Rng rng(14);
  const std::vector<double> probs{0.5, 0.25, 0.25};
  std::vector<double> sums(3, 0.0);
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const auto counts = multinomial(rng, 100, probs);
    for (std::size_t c = 0; c < 3; ++c) {
      sums[c] += static_cast<double>(counts[c]);
    }
  }
  EXPECT_NEAR(sums[0] / trials, 50.0, 0.5);
  EXPECT_NEAR(sums[1] / trials, 25.0, 0.5);
  EXPECT_NEAR(sums[2] / trials, 25.0, 0.5);
}

TEST(DistributionsTest, MultinomialZeroCategoryGetsNothing) {
  Rng rng(15);
  const auto counts = multinomial(rng, 500, {0.5, 0.0, 0.5});
  EXPECT_EQ(counts[1], 0);
}

TEST(DistributionsTest, MultinomialRejectsUnnormalizedProbs) {
  Rng rng(16);
  EXPECT_THROW((void)multinomial(rng, 10, {0.5, 0.4}), ContractViolation);
  EXPECT_THROW((void)multinomial(rng, 10, {0.5, -0.5, 1.0}),
               ContractViolation);
}

// -------------------------------------------------------- hypergeometric

TEST(DistributionsTest, HypergeometricBounds) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const Index v = hypergeometric(rng, 50, 20, 10);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 10);
  }
}

TEST(DistributionsTest, HypergeometricExhaustiveDraws) {
  Rng rng(18);
  // Drawing the whole population must return exactly all successes.
  EXPECT_EQ(hypergeometric(rng, 30, 12, 30), 12);
}

TEST(DistributionsTest, HypergeometricMeanMatches) {
  Rng rng(19);
  const int trials = 20000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(hypergeometric(rng, 100, 30, 20));
  }
  EXPECT_NEAR(sum / trials, 6.0, 0.1);  // draws * K/N = 20*0.3
}

// ------------------------------------------- sampling with/without repl.

TEST(DistributionsTest, WithoutReplacementIsSortedUniqueSubset) {
  Rng rng(20);
  for (int i = 0; i < 100; ++i) {
    const auto s = sample_without_replacement(rng, 30, 10);
    ASSERT_EQ(s.size(), 10u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end());
    for (const Index v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 30);
    }
  }
}

TEST(DistributionsTest, WithoutReplacementFullPopulation) {
  Rng rng(21);
  const auto s = sample_without_replacement(rng, 12, 12);
  std::vector<Index> expected(12);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(s, expected);
}

TEST(DistributionsTest, WithoutReplacementIsUniform) {
  Rng rng(22);
  // Each of the 5 items should appear in a 2-subset with probability 2/5.
  std::map<Index, int> appearance;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    for (const Index v : sample_without_replacement(rng, 5, 2)) {
      ++appearance[v];
    }
  }
  for (Index v = 0; v < 5; ++v) {
    EXPECT_NEAR(static_cast<double>(appearance[v]) / trials, 0.4, 0.02);
  }
}

TEST(DistributionsTest, WithReplacementSizeAndRange) {
  Rng rng(23);
  std::vector<Index> s{-7};  // appends after what the buffer holds
  sample_with_replacement(rng, 10, 100, s);
  ASSERT_EQ(s.size(), 101u);
  EXPECT_EQ(s.front(), -7);
  s.erase(s.begin());
  for (const Index v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(DistributionsTest, WithReplacementProducesDuplicates) {
  Rng rng(24);
  // Birthday bound: 100 draws from 10 values must collide.
  std::vector<Index> s;
  sample_with_replacement(rng, 10, 100, s);
  std::set<Index> unique(s.begin(), s.end());
  EXPECT_LT(unique.size(), s.size());
}

TEST(DistributionsTest, WithReplacementIsUniform) {
  Rng rng(25);
  std::vector<int> counts(8, 0);
  const int draws = 80000;
  std::vector<Index> s;
  sample_with_replacement(rng, 8, draws, s);
  for (const Index v : s) {
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.125, 0.01);
  }
}

// ---------------------------------------------------------------- shuffle

TEST(DistributionsTest, ShufflePreservesMultiset) {
  Rng rng(26);
  std::vector<Index> items{1, 2, 3, 4, 5, 5, 6};
  auto shuffled = items;
  shuffle(rng, shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(DistributionsTest, ShuffleSmallInputsNoop) {
  Rng rng(27);
  std::vector<Index> empty;
  shuffle(rng, empty);
  EXPECT_TRUE(empty.empty());
  std::vector<Index> one{42};
  shuffle(rng, one);
  EXPECT_EQ(one, std::vector<Index>{42});
}

TEST(DistributionsTest, ShuffleFirstPositionUniform) {
  Rng rng(28);
  std::map<Index, int> first_counts;
  const int trials = 12000;
  for (int i = 0; i < trials; ++i) {
    std::vector<Index> items{0, 1, 2, 3};
    shuffle(rng, items);
    ++first_counts[items[0]];
  }
  for (Index v = 0; v < 4; ++v) {
    EXPECT_NEAR(static_cast<double>(first_counts[v]) / trials, 0.25, 0.02);
  }
}

// ------------------------------------------------------- golden stream
//
// Every pinned result of the reproduction (success counts, report bytes)
// assumes Rng produces std::mt19937_64's stream.  The threads/shards cmp
// rails compare the program with itself and cannot see a stream change,
// so these tests compare Rng, and the std distributions it drives, with
// the standard library's engine directly.

/// The seeds the stream tests cover: the zero and all-ones words, the
/// standard's default seed, and a seed as the batch engine derives it.
std::vector<std::uint64_t> golden_seeds() {
  return {0, 1, 5489, std::numeric_limits<std::uint64_t>::max(),
          engine::derive_job_seed(7, "fig6", 3, 1)};
}

/// Index of the first of `count` draws where `rng` and `reference`
/// disagree, or `count` when they agree throughout.
std::int64_t first_mismatch(Rng& rng, std::mt19937_64& reference,
                            std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    if (rng() != reference()) {
      return i;
    }
  }
  return count;
}

TEST(RngStreamTest, MatchesStdEngineForMillionDraws) {
  constexpr std::int64_t kDraws = 1'000'000;
  for (const std::uint64_t seed : golden_seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    EXPECT_EQ(first_mismatch(rng, reference, kDraws), kDraws)
        << "seed " << seed;
  }
}

TEST(RngStreamTest, StandardConformanceValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  Rng rng(5489);
  for (int i = 1; i < 10000; ++i) {
    (void)rng();
  }
  EXPECT_EQ(rng(), 9981545732273789042ULL);
}

TEST(RngStreamTest, UniformIndexMatchesStdDistribution) {
  const std::vector<Index> bounds = {
      1,
      2,
      3,
      1000,
      (Index{1} << 32) - 1,
      (Index{1} << 32) + 1,
      (Index{1} << 62) + 1,
      std::numeric_limits<Index>::max()};
  for (const std::uint64_t seed : golden_seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (const Index bound : bounds) {
      for (int i = 0; i < 2000; ++i) {
        const Index expected =
            std::uniform_int_distribution<Index>(0, bound - 1)(reference);
        ASSERT_EQ(rng.uniform_index(bound), expected)
            << "seed " << seed << " bound " << bound << " draw " << i;
      }
    }
  }
}

TEST(RngStreamTest, RealGaussianBernoulliMatchStdDistributions) {
  for (const std::uint64_t seed : golden_seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {
      const double u =
          std::uniform_real_distribution<double>(0.0, 1.0)(reference);
      ASSERT_EQ(rng.uniform_real(), u) << "seed " << seed << " draw " << i;
      // Rng::gaussian builds a fresh distribution per call, so the std
      // side must too (normal_distribution caches its second variate).
      const double g = std::normal_distribution<double>(1.5, 2.0)(reference);
      ASSERT_EQ(rng.gaussian(1.5, 2.0), g) << "seed " << seed << " draw " << i;
      const double p = 0.05 + 0.9 * static_cast<double>(i % 7) / 6.0;
      const bool b = std::bernoulli_distribution(p)(reference);
      ASSERT_EQ(rng.bernoulli(p), b) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngStreamTest, BinomialMatchesStdDistribution) {
  // Small trial counts take libstdc++'s direct path, large ones the
  // rejection sampler (which consumes a variable number of draws).
  const std::vector<Index> trials = {1, 7, 40, 1000, 250000};
  const std::vector<double> probs = {0.01, 0.3, 0.5, 0.93};
  for (const std::uint64_t seed : golden_seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int round = 0; round < 50; ++round) {
      for (const Index t : trials) {
        for (const double p : probs) {
          const Index expected =
              std::binomial_distribution<Index>(t, p)(reference);
          ASSERT_EQ(binomial(rng, t, p), expected)
              << "seed " << seed << " trials " << t << " p " << p;
        }
      }
    }
  }
}

TEST(RngStreamTest, ShuffleMatchesStdFisherYates) {
  for (const std::uint64_t seed : golden_seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (const std::size_t size : {2U, 3U, 17U, 1000U}) {
      std::vector<Index> items(size);
      std::iota(items.begin(), items.end(), Index{0});
      std::vector<Index> expected = items;
      for (std::size_t i = size - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            std::uniform_int_distribution<Index>(
                0, static_cast<Index>(i))(reference));
        std::swap(expected[i], expected[j]);
      }
      shuffle(rng, items);
      ASSERT_EQ(items, expected) << "seed " << seed << " size " << size;
    }
  }
}

TEST(RngStreamTest, CopyContinuesIdentically) {
  // 100 draws copies mid-block; 312 (one whole state) copies exactly at
  // the refill boundary.
  for (const int drawn : {0, 100, 312}) {
    Rng rng(2024);
    std::mt19937_64 reference(2024);
    for (int i = 0; i < drawn; ++i) {
      ASSERT_EQ(rng(), reference());
    }
    Rng copy = rng;
    std::mt19937_64 reference_copy = reference;
    EXPECT_EQ(first_mismatch(copy, reference_copy, 2000), 2000)
        << "copy after " << drawn;
    EXPECT_EQ(first_mismatch(rng, reference, 2000), 2000)
        << "original after " << drawn;
  }
}

TEST(RngStreamTest, DeriveSeedsTheStdStream) {
  const Rng parent(777);
  for (const std::uint64_t tag : {0ULL, 5ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    Rng child = parent.derive(tag);
    const std::uint64_t expected_seed =
        splitmix64(777ULL ^ splitmix64(tag + 0x1234567ULL));
    EXPECT_EQ(child.seed(), expected_seed);
    std::mt19937_64 reference(expected_seed);
    EXPECT_EQ(first_mismatch(child, reference, 5000), 5000) << "tag " << tag;
  }
}

}  // namespace
}  // namespace npd::rand
