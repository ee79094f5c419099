// Tests for the sorting networks: correctness on all 0-1 inputs for small
// n (the 0-1 principle makes this exhaustive proof of sortedness),
// random permutations at larger n, disjointness of layers (the property
// that makes depth = communication rounds), and depth/size bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "netsim/sorting_network.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace npd::netsim {
namespace {

void expect_sorts_all_01_inputs(const SortingSchedule& schedule, Index n) {
  // By the 0-1 principle a comparator network sorts all inputs iff it
  // sorts all 2^n binary inputs.
  ASSERT_LE(n, 16);
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> values(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      values[static_cast<std::size_t>(i)] =
          (mask >> i) & 1u ? 1.0 : 0.0;
    }
    apply_schedule(schedule, values);
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()))
        << "n=" << n << " mask=" << mask;
  }
}

class OddEvenSmallNTest : public ::testing::TestWithParam<Index> {};

TEST_P(OddEvenSmallNTest, SortsAllBinaryInputs) {
  const Index n = GetParam();
  expect_sorts_all_01_inputs(make_odd_even_schedule(n), n);
}

INSTANTIATE_TEST_SUITE_P(ZeroOnePrinciple, OddEvenSmallNTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13),
                         [](const ::testing::TestParamInfo<Index>& info) {
                           return "n" + std::to_string(info.param);
                         });

class BitonicSmallNTest : public ::testing::TestWithParam<Index> {};

TEST_P(BitonicSmallNTest, SortsAllBinaryInputs) {
  const Index n = GetParam();
  expect_sorts_all_01_inputs(make_bitonic_schedule(n), n);
}

INSTANTIATE_TEST_SUITE_P(ZeroOnePrinciple, BitonicSmallNTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13),
                         [](const ::testing::TestParamInfo<Index>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(OddEvenTest, SortsRandomPermutationsLargerN) {
  rand::Rng rng(42);
  for (const Index n : {50, 100, 257, 1000}) {
    const SortingSchedule schedule = make_odd_even_schedule(n);
    std::vector<double> values(static_cast<std::size_t>(n));
    std::iota(values.begin(), values.end(), 0.0);
    // Fisher-Yates on doubles via index shuffle.
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_index(static_cast<Index>(i) + 1));
      std::swap(values[i], values[j]);
    }
    apply_schedule(schedule, values);
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end())) << "n=" << n;
    // Stronger: contents are exactly 0..n-1.
    for (Index i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(values[static_cast<std::size_t>(i)],
                       static_cast<double>(i));
    }
  }
}

/// Batcher's odd-even mergesort in the textbook division form (Knuth
/// TAOCP vol. 3, 5.3.4): the reference the library's mask form must
/// reproduce comparator for comparator.
std::vector<std::vector<Comparator>> division_form_layers(Index n) {
  std::vector<std::vector<Comparator>> layers;
  for (Index p = 1; p < n; p *= 2) {
    for (Index k = p; k >= 1; k /= 2) {
      std::vector<Comparator> layer;
      for (Index j = k % p; j + k < n; j += 2 * k) {
        for (Index i = 0; i < std::min(k, n - j - k); ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            layer.push_back(Comparator{.lo = i + j, .hi = i + j + k});
          }
        }
      }
      if (!layer.empty()) {
        layers.push_back(std::move(layer));
      }
    }
  }
  return layers;
}

TEST(OddEvenTest, MatchesDivisionFormReference) {
  std::vector<Index> sizes(300);
  std::iota(sizes.begin(), sizes.end(), Index{1});
  for (const Index n : {511, 512, 513, 1000, 4000, 8192}) {
    sizes.push_back(n);
  }
  for (const Index n : sizes) {
    const SortingSchedule schedule = make_odd_even_schedule(n);
    const std::vector<std::vector<Comparator>> expected =
        division_form_layers(n);
    ASSERT_EQ(schedule.depth(), static_cast<Index>(expected.size()))
        << "n=" << n;
    for (Index l = 0; l < schedule.depth(); ++l) {
      const std::vector<Comparator>& got = schedule.layer(l);
      const std::vector<Comparator>& want =
          expected[static_cast<std::size_t>(l)];
      ASSERT_EQ(got.size(), want.size()) << "n=" << n << " layer " << l;
      for (std::size_t c = 0; c < got.size(); ++c) {
        ASSERT_TRUE(got[c].lo == want[c].lo && got[c].hi == want[c].hi)
            << "n=" << n << " layer " << l << " comparator " << c;
      }
    }
  }
}

TEST(OddEvenTest, SortsInputsWithDuplicates) {
  rand::Rng rng(43);
  const SortingSchedule schedule = make_odd_even_schedule(200);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<double>(rng.uniform_index(7)));
  }
  auto expected = values;
  std::sort(expected.begin(), expected.end());
  apply_schedule(schedule, values);
  EXPECT_EQ(values, expected);
}

TEST(OddEvenTest, LayersAreDisjoint) {
  // Comparators within a layer must touch disjoint wires — otherwise a
  // layer could not execute in one communication round.
  for (const Index n : {2, 3, 7, 16, 100, 333}) {
    const SortingSchedule schedule = make_odd_even_schedule(n);
    for (Index l = 0; l < schedule.depth(); ++l) {
      std::set<Index> touched;
      for (const Comparator& c : schedule.layer(l)) {
        EXPECT_TRUE(touched.insert(c.lo).second)
            << "n=" << n << " layer=" << l << " wire=" << c.lo;
        EXPECT_TRUE(touched.insert(c.hi).second)
            << "n=" << n << " layer=" << l << " wire=" << c.hi;
      }
    }
  }
}

TEST(BitonicTest, LayersAreDisjoint) {
  for (const Index n : {2, 8, 64, 100}) {
    const SortingSchedule schedule = make_bitonic_schedule(n);
    for (Index l = 0; l < schedule.depth(); ++l) {
      std::set<Index> touched;
      for (const Comparator& c : schedule.layer(l)) {
        EXPECT_TRUE(touched.insert(c.lo).second);
        EXPECT_TRUE(touched.insert(c.hi).second);
      }
    }
  }
}

TEST(OddEvenTest, DepthIsThetaLogSquared) {
  // Exact depth of Batcher odd-even mergesort for n = 2^t is t(t+1)/2.
  for (const Index t : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
    const Index n = Index{1} << t;
    const SortingSchedule schedule = make_odd_even_schedule(n);
    EXPECT_EQ(schedule.depth(), t * (t + 1) / 2) << "n=" << n;
  }
}

TEST(OddEvenTest, ComparatorCountForPowersOfTwo) {
  // Exact size for n = 2^t: n·t(t−1)/4 + n − 1 comparators.
  for (const Index t : {1, 2, 3, 4, 5, 6, 7, 8}) {
    const Index n = Index{1} << t;
    const SortingSchedule schedule = make_odd_even_schedule(n);
    EXPECT_EQ(schedule.comparator_count(), n * t * (t - 1) / 4 + n - 1)
        << "n=" << n;
  }
}

TEST(BitonicTest, DepthForPowersOfTwo) {
  for (const Index t : {1, 2, 3, 4, 5, 6}) {
    const Index n = Index{1} << t;
    const SortingSchedule schedule = make_bitonic_schedule(n);
    EXPECT_EQ(schedule.depth(), t * (t + 1) / 2);
    EXPECT_EQ(schedule.wire_count(), n);
  }
}

TEST(BitonicTest, NonPowerOfTwoPadsWires) {
  const SortingSchedule schedule = make_bitonic_schedule(100);
  EXPECT_EQ(schedule.wire_count(), 128);
}

TEST(ScheduleTest, TrivialSingleWire) {
  const SortingSchedule schedule = make_odd_even_schedule(1);
  EXPECT_EQ(schedule.depth(), 0);
  EXPECT_EQ(schedule.comparator_count(), 0);
  std::vector<double> one{3.0};
  apply_schedule(schedule, one);
  EXPECT_DOUBLE_EQ(one[0], 3.0);
}

TEST(ScheduleTest, RejectsOutOfRangeComparators) {
  EXPECT_THROW(SortingSchedule(2, {{Comparator{0, 2}}}), ContractViolation);
  EXPECT_THROW(SortingSchedule(2, {{Comparator{1, 1}}}), ContractViolation);
}

TEST(ScheduleTest, ApplyRejectsTooManyValues) {
  const SortingSchedule schedule = make_odd_even_schedule(4);
  std::vector<double> values{1, 2, 3, 4, 5};
  EXPECT_THROW(apply_schedule(schedule, values), ContractViolation);
}

TEST(NextPow2Test, Values) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(100), 128);
  EXPECT_EQ(next_pow2(1024), 1024);
  EXPECT_EQ(next_pow2(1025), 2048);
}

}  // namespace
}  // namespace npd::netsim
