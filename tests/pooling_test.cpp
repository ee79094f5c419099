// Unit tests for src/pooling: ground truth, query designs, and the
// structural invariants of the bipartite pooling multigraph.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph_degrees.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "util/assert.hpp"

namespace npd::pooling {
namespace {

rand::Rng test_rng(std::uint64_t tag = 0) { return rand::Rng(0xBADC0FFEE + tag); }

// Every CSR view of a pooling graph, as plain vectors, so two graphs (or a
// graph and the reference below) compare with readable gtest diffs.
struct GraphViews {
  Index n = 0;
  std::vector<std::vector<Index>> multiset;
  std::vector<std::vector<Index>> distinct;
  std::vector<std::vector<Index>> multiplicity;
};

std::vector<Index> to_vector(std::span<const Index> view) {
  return {view.begin(), view.end()};
}

GraphViews views_of(const PoolingGraph& g) {
  GraphViews v;
  v.n = g.num_agents();
  for (Index j = 0; j < g.num_queries(); ++j) {
    v.multiset.push_back(to_vector(g.query_multiset(j)));
    v.distinct.push_back(to_vector(g.query_distinct(j)));
    v.multiplicity.push_back(to_vector(g.query_multiplicity(j)));
  }
  return v;
}

// Reference oracle: the sort-based dedup the builder used before its
// census — copy each multiset, sort it, run-length encode the runs.
GraphViews reference_views(Index n,
                           const std::vector<std::vector<Index>>& multisets) {
  GraphViews v;
  v.n = n;
  v.multiset = multisets;
  for (std::size_t j = 0; j < multisets.size(); ++j) {
    std::vector<Index> sorted = multisets[j];
    std::sort(sorted.begin(), sorted.end());
    std::vector<Index> distinct;
    std::vector<Index> counts;
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t run = i;
      while (run < sorted.size() && sorted[run] == sorted[i]) {
        ++run;
      }
      distinct.push_back(sorted[i]);
      counts.push_back(static_cast<Index>(run - i));
      i = run;
    }
    v.distinct.push_back(std::move(distinct));
    v.multiplicity.push_back(std::move(counts));
  }
  return v;
}

void expect_same_views(const GraphViews& got, const GraphViews& want) {
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(got.multiset, want.multiset);
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(got.multiplicity, want.multiplicity);
}

/// The graph's derived views must equal the reference dedup of its own
/// multisets (for families whose multisets only the builder knows).
void expect_matches_reference(const PoolingGraph& g) {
  const GraphViews got = views_of(g);
  expect_same_views(got, reference_views(g.num_agents(), got.multiset));
}

// ----------------------------------------------------------- ground truth

TEST(GroundTruthTest, ExactlyKOnes) {
  auto rng = test_rng();
  const GroundTruth truth = make_ground_truth(100, 17, rng);
  EXPECT_EQ(truth.n(), 100);
  EXPECT_EQ(truth.k(), 17);
  Index ones = 0;
  for (const Bit b : truth.bits) {
    ones += b;
  }
  EXPECT_EQ(ones, 17);
}

TEST(GroundTruthTest, OnesListMatchesBits) {
  auto rng = test_rng(1);
  const GroundTruth truth = make_ground_truth(50, 9, rng);
  EXPECT_TRUE(std::is_sorted(truth.ones.begin(), truth.ones.end()));
  for (const Index i : truth.ones) {
    EXPECT_EQ(truth.bits[static_cast<std::size_t>(i)], 1);
  }
}

TEST(GroundTruthTest, DegenerateZeroAndFull) {
  auto rng = test_rng(2);
  const GroundTruth none = make_ground_truth(10, 0, rng);
  EXPECT_TRUE(none.ones.empty());
  const GroundTruth all = make_ground_truth(10, 10, rng);
  EXPECT_EQ(all.k(), 10);
}

TEST(GroundTruthTest, RejectsBadK) {
  auto rng = test_rng(3);
  EXPECT_THROW((void)make_ground_truth(10, 11, rng), ContractViolation);
  EXPECT_THROW((void)make_ground_truth(10, -1, rng), ContractViolation);
  EXPECT_THROW((void)make_ground_truth(0, 0, rng), ContractViolation);
}

TEST(GroundTruthTest, UniformOverSupport) {
  // Every agent is a one with probability k/n.
  auto rng = test_rng(4);
  const int trials = 5000;
  std::vector<int> counts(20, 0);
  for (int t = 0; t < trials; ++t) {
    const GroundTruth truth = make_ground_truth(20, 5, rng);
    for (const Index i : truth.ones) {
      ++counts[static_cast<std::size_t>(i)];
    }
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.035);
  }
}

TEST(RegimeTest, SublinearKMatchesPower) {
  EXPECT_EQ(sublinear_k(10000, 0.25), 10);   // 10000^0.25 = 10
  EXPECT_EQ(sublinear_k(100000, 0.25), 18);  // ≈ 17.78
  EXPECT_EQ(sublinear_k(100, 0.5), 10);
}

TEST(RegimeTest, SublinearKClampedToAtLeastOne) {
  EXPECT_GE(sublinear_k(2, 0.1), 1);
}

TEST(RegimeTest, LinearKMatchesFraction) {
  EXPECT_EQ(linear_k(1000, 0.1), 100);
  EXPECT_EQ(linear_k(1000, 0.05), 50);
}

TEST(RegimeTest, RejectsBadParameters) {
  EXPECT_THROW((void)sublinear_k(100, 0.0), ContractViolation);
  EXPECT_THROW((void)sublinear_k(100, 1.0), ContractViolation);
  EXPECT_THROW((void)linear_k(100, 0.0), ContractViolation);
  EXPECT_THROW((void)linear_k(100, 1.0), ContractViolation);
}

// ---------------------------------------------------------- query design

TEST(QueryDesignTest, PaperDesignIsHalfWithReplacement) {
  const QueryDesign d = paper_design(1000);
  EXPECT_EQ(d.gamma, 500);
  EXPECT_EQ(d.mode, SamplingMode::WithReplacement);
}

TEST(QueryDesignTest, FractionalDesignRounds) {
  const QueryDesign d =
      fractional_design(1000, 0.3, SamplingMode::WithoutReplacement);
  EXPECT_EQ(d.gamma, 300);
  EXPECT_EQ(d.mode, SamplingMode::WithoutReplacement);
}

// Degenerate design parameters are usage errors with pinned messages —
// a fraction that rounds to an empty pool must never silently become a
// different design.
TEST(QueryDesignTest, PaperDesignRejectsTinyN) {
  try {
    (void)paper_design(1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "paper design: need n >= 2");
  }
}

TEST(QueryDesignTest, FractionalDesignRejectsTinyN) {
  try {
    (void)fractional_design(1, 0.5, SamplingMode::WithReplacement);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "fractional design: need n >= 2");
  }
}

TEST(QueryDesignTest, FractionalDesignRejectsFractionOutOfRange) {
  for (const double fraction : {0.0, -0.25, 1.5}) {
    try {
      (void)fractional_design(100, fraction, SamplingMode::WithReplacement);
      FAIL() << "expected std::invalid_argument for fraction " << fraction;
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(),
                   "fractional design: pool fraction must lie in (0, 1]");
    }
  }
}

TEST(QueryDesignTest, FractionalDesignRejectsEmptyPoolRounding) {
  try {
    (void)fractional_design(10, 0.001, SamplingMode::WithReplacement);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "fractional design: pool fraction rounds to an empty pool "
                 "(gamma = 0)");
  }
}

TEST(QueryDesignTest, FractionalDesignAcceptsSmallestNondegenerateFraction) {
  // The smallest fraction that still rounds to Γ >= 1 stays a valid design.
  const QueryDesign d =
      fractional_design(10, 0.05, SamplingMode::WithReplacement);
  EXPECT_EQ(d.gamma, 1);
}

TEST(QueryDesignTest, SampleQuerySizeIsGamma) {
  auto rng = test_rng(5);
  const QueryDesign d = paper_design(100);
  const auto q = sample_query(d, 100, rng);
  EXPECT_EQ(static_cast<Index>(q.size()), d.gamma);
}

TEST(QueryDesignTest, WithoutReplacementHasNoDuplicates) {
  auto rng = test_rng(6);
  const QueryDesign d = fractional_design(60, 0.5, SamplingMode::WithoutReplacement);
  const auto q = sample_query(d, 60, rng);
  std::set<Index> unique(q.begin(), q.end());
  EXPECT_EQ(unique.size(), q.size());
}

TEST(QueryDesignTest, WithReplacementHasDuplicatesWhp) {
  auto rng = test_rng(7);
  const QueryDesign d = paper_design(100);  // 50 draws from 100
  int with_dup = 0;
  for (int t = 0; t < 50; ++t) {
    const auto q = sample_query(d, 100, rng);
    std::set<Index> unique(q.begin(), q.end());
    if (unique.size() < q.size()) {
      ++with_dup;
    }
  }
  EXPECT_GT(with_dup, 45);  // collision probability is ≈ 1
}

TEST(QueryDesignTest, BernoulliPoolSizeConcentrates) {
  auto rng = test_rng(20);
  const QueryDesign d = fractional_design(400, 0.5, SamplingMode::Bernoulli);
  double total = 0.0;
  for (int t = 0; t < 200; ++t) {
    const auto q = sample_query(d, 400, rng);
    std::set<Index> unique(q.begin(), q.end());
    EXPECT_EQ(unique.size(), q.size()) << "Bernoulli pools must be simple";
    total += static_cast<double>(q.size());
  }
  // E[size] = 200; std of the mean over 200 trials ~ 0.7.
  EXPECT_NEAR(total / 200.0, 200.0, 4.0);
}

TEST(QueryDesignTest, BernoulliNeverEmpty) {
  auto rng = test_rng(21);
  const QueryDesign d = fractional_design(50, 0.02, SamplingMode::Bernoulli);
  for (int t = 0; t < 300; ++t) {
    EXPECT_GE(sample_query(d, 50, rng).size(), 1u);
  }
}

TEST(QueryDesignTest, BernoulliAgentsSorted) {
  auto rng = test_rng(22);
  const QueryDesign d = fractional_design(100, 0.3, SamplingMode::Bernoulli);
  const auto q = sample_query(d, 100, rng);
  EXPECT_TRUE(std::is_sorted(q.begin(), q.end()));
}

// ---------------------------------------------------------------- graph

TEST(PoolingGraphTest, BuilderCountsQueries) {
  PoolingGraphBuilder builder(10);
  EXPECT_EQ(builder.num_queries_so_far(), 0);
  const std::vector<Index> q{0, 1, 2};
  EXPECT_EQ(builder.add_query(q), 0);
  EXPECT_EQ(builder.add_query(q), 1);
  EXPECT_EQ(builder.num_queries_so_far(), 2);
}

TEST(PoolingGraphTest, MultisetRoundTrips) {
  PoolingGraphBuilder builder(10);
  const std::vector<Index> q{3, 1, 3, 7, 1, 1};
  (void)builder.add_query(q);
  const PoolingGraph g = builder.build();
  const auto multiset = g.query_multiset(0);
  EXPECT_TRUE(std::equal(multiset.begin(), multiset.end(), q.begin(), q.end()));
}

TEST(PoolingGraphTest, DistinctAndMultiplicity) {
  PoolingGraphBuilder builder(10);
  (void)builder.add_query(std::vector<Index>{3, 1, 3, 7, 1, 1});
  const PoolingGraph g = builder.build();

  const auto distinct = g.query_distinct(0);
  const auto counts = g.query_multiplicity(0);
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct[0], 1);
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(distinct[1], 3);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(distinct[2], 7);
  EXPECT_EQ(counts[2], 1);
}

TEST(PoolingGraphTest, DegreesAccumulateAcrossQueries) {
  PoolingGraphBuilder builder(5);
  (void)builder.add_query(std::vector<Index>{0, 0, 1});
  (void)builder.add_query(std::vector<Index>{0, 2});
  const auto degrees = test::graph_degrees(builder.build());

  EXPECT_EQ(degrees.delta(0), 3);       // sampled 2 + 1 times
  EXPECT_EQ(degrees.delta_star(0), 2);  // in 2 distinct queries
  EXPECT_EQ(degrees.delta(1), 1);
  EXPECT_EQ(degrees.delta_star(1), 1);
  EXPECT_EQ(degrees.delta(3), 0);
  EXPECT_EQ(degrees.delta_star(3), 0);
}

TEST(PoolingGraphTest, EdgeCountIsMGamma) {
  auto rng = test_rng(9);
  const QueryDesign d = paper_design(50);
  const PoolingGraph g = make_pooling_graph(50, 12, d, rng);
  EXPECT_EQ(g.num_edges(), 12 * d.gamma);

  const auto degrees = test::graph_degrees(g);
  Index delta_sum = 0;
  for (Index i = 0; i < g.num_agents(); ++i) {
    delta_sum += degrees.delta(i);
  }
  EXPECT_EQ(delta_sum, g.num_edges());
}

TEST(PoolingGraphTest, DeltaStarNeverExceedsDelta) {
  auto rng = test_rng(10);
  const PoolingGraph g = make_pooling_graph(60, 30, paper_design(60), rng);
  const auto degrees = test::graph_degrees(g);
  for (Index i = 0; i < g.num_agents(); ++i) {
    EXPECT_LE(degrees.delta_star(i), degrees.delta(i));
    EXPECT_LE(degrees.delta_star(i), g.num_queries());
  }
}

TEST(PoolingGraphTest, BuilderRejectsBadAgents) {
  PoolingGraphBuilder builder(4);
  EXPECT_THROW((void)builder.add_query(std::vector<Index>{4}),
               ContractViolation);
  EXPECT_THROW((void)builder.add_query(std::vector<Index>{-1}),
               ContractViolation);
  EXPECT_THROW((void)builder.add_query(std::vector<Index>{}),
               ContractViolation);
  // A bad agent after valid ones must not leave the valid prefix behind.
  EXPECT_THROW((void)builder.add_query(std::vector<Index>{0, 9}),
               ContractViolation);
  EXPECT_THROW((void)builder.add_query(std::vector<Index>{3, 3, -1}),
               ContractViolation);
  EXPECT_EQ(builder.num_queries_so_far(), 0);

  // Strong guarantee: the rejected queries left no trace, so the next
  // valid query builds the same graph a fresh builder does.
  const std::vector<Index> valid{1, 3, 1};
  EXPECT_EQ(builder.add_query(valid), 0);
  const PoolingGraph after_throws = builder.build();
  PoolingGraphBuilder fresh(4);
  (void)fresh.add_query(valid);
  expect_same_views(views_of(after_throws), views_of(fresh.build()));
  expect_same_views(views_of(after_throws), reference_views(4, {valid}));
}

TEST(PoolingGraphTest, BuilderIsReusableAfterBuild) {
  PoolingGraphBuilder builder(5);
  (void)builder.add_query(std::vector<Index>{0, 1});
  const PoolingGraph first = builder.build();
  EXPECT_EQ(first.num_queries(), 1);
  EXPECT_EQ(builder.num_queries_so_far(), 0);
  (void)builder.add_query(std::vector<Index>{2, 3});
  (void)builder.add_query(std::vector<Index>{4, 4});
  const PoolingGraph second = builder.build();
  EXPECT_EQ(second.num_queries(), 2);
  EXPECT_EQ(test::graph_degrees(second).delta(4), 2);
}

TEST(PoolingGraphTest, IncrementalEqualsBatch) {
  // Adding queries one by one (the paper's protocol) must produce the same
  // graph as the batch constructor under the same random stream.
  auto rng1 = test_rng(11);
  auto rng2 = test_rng(11);
  const QueryDesign d = paper_design(30);

  const PoolingGraph batch = make_pooling_graph(30, 8, d, rng1);
  PoolingGraphBuilder builder(30);
  for (int j = 0; j < 8; ++j) {
    (void)builder.add_random_query(d, rng2);
  }
  const PoolingGraph inc = builder.build();

  ASSERT_EQ(batch.num_queries(), inc.num_queries());
  for (Index j = 0; j < batch.num_queries(); ++j) {
    const auto a = batch.query_multiset(j);
    const auto b = inc.query_multiset(j);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

// ------------------------------------------------- reference-oracle dedup

// Every per-query design family, at sizes straddling the 64-agent words of
// the census bitmap.  Each builder first takes a query on the boundary
// agents 0 and n-1, then random queries whose multisets a twin generator
// re-derives through the returning `sample_query`; a second round on the
// same builder after `build()` checks the census scratch came back clean.
TEST(PoolingGraphReferenceTest, PerQueryDesignsMatchSortedDedup) {
  for (const Index n : {2, 63, 64, 65, 128, 1000}) {
    const std::vector<QueryDesign> designs{
        paper_design(n),
        fractional_design(n, 0.5, SamplingMode::WithoutReplacement),
        fractional_design(n, 0.3, SamplingMode::Bernoulli),
        QueryDesign{.gamma = 3 * n, .mode = SamplingMode::WithReplacement},
    };
    for (std::size_t d = 0; d < designs.size(); ++d) {
      SCOPED_TRACE("n=" + std::to_string(n) + " design=" + std::to_string(d));
      auto rng = test_rng(100 + static_cast<std::uint64_t>(n));
      auto twin = test_rng(100 + static_cast<std::uint64_t>(n));
      PoolingGraphBuilder builder(n);
      for (int round = 0; round < 2; ++round) {
        std::vector<std::vector<Index>> multisets{{n - 1, 0, n - 1, 0, 0}};
        (void)builder.add_query(multisets.front());
        for (int j = 0; j < 12; ++j) {
          (void)builder.add_random_query(designs[d], rng);
          multisets.push_back(sample_query(designs[d], n, twin));
        }
        expect_same_views(views_of(builder.build()),
                          reference_views(n, multisets));
      }
    }
  }
}

TEST(PoolingGraphReferenceTest, MakePoolingGraphMatchesSortedDedup) {
  for (const Index n : {2, 65, 1000}) {
    const QueryDesign design = paper_design(n);
    auto rng = test_rng(200 + static_cast<std::uint64_t>(n));
    auto twin = test_rng(200 + static_cast<std::uint64_t>(n));
    const PoolingGraph g = make_pooling_graph(n, 40, design, rng);
    std::vector<std::vector<Index>> multisets;
    for (int j = 0; j < 40; ++j) {
      multisets.push_back(sample_query(design, n, twin));
    }
    expect_same_views(views_of(g), reference_views(n, multisets));
  }
}

TEST(PoolingGraphReferenceTest, DoublyRegularMatchesSortedDedup) {
  for (const Index n : {2, 63, 64, 65, 128, 1000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto rng = test_rng(300 + static_cast<std::uint64_t>(n));
    const Index delta = 5;
    const PoolingGraph g =
        make_doubly_regular_graph(n, std::min<Index>(n * delta, 40), delta, rng);
    expect_matches_reference(g);
    const auto degrees = test::graph_degrees(g);
    EXPECT_EQ(degrees.delta(0), delta);
    EXPECT_EQ(degrees.delta(n - 1), delta);
  }
}

TEST(PoolingGraphReferenceTest, ConstantColumnWeightMatchesSortedDedup) {
  for (const Index n : {2, 63, 64, 65, 128, 1000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto rng = test_rng(400 + static_cast<std::uint64_t>(n));
    const PoolingGraph g = make_constant_column_weight_graph(n, 30, 4, rng);
    expect_matches_reference(g);
    // Every agent joins 4 queries; padding of empty queries may add more.
    const auto degrees = test::graph_degrees(g);
    EXPECT_GE(degrees.delta_star(0), 4);
    EXPECT_GE(degrees.delta_star(n - 1), 4);
  }
}

// Sparse design, Γ = 4 ≪ n: each query touches at most four bitmap words
// far apart, including the first and the last.
TEST(PoolingGraphReferenceTest, SparseQueriesMatchSortedDedup) {
  const Index n = 100000;
  const QueryDesign design{.gamma = 4, .mode = SamplingMode::WithReplacement};
  auto rng = test_rng(500);
  auto twin = test_rng(500);
  PoolingGraphBuilder builder(n);
  std::vector<std::vector<Index>> multisets{{n - 1, 0, 0, n - 1}, {n - 1}};
  for (const auto& query : multisets) {
    (void)builder.add_query(query);
  }
  for (int j = 0; j < 300; ++j) {
    (void)builder.add_random_query(design, rng);
    multisets.push_back(sample_query(design, n, twin));
  }
  expect_same_views(views_of(builder.build()), reference_views(n, multisets));
}

// ----------------------------------------------- constant column weight

TEST(CcwGraphTest, EveryAgentHasExactWeight) {
  auto rng = test_rng(12);
  const PoolingGraph g = make_constant_column_weight_graph(50, 20, 5, rng);
  const auto degrees = test::graph_degrees(g);
  for (Index i = 0; i < g.num_agents(); ++i) {
    EXPECT_EQ(degrees.delta_star(i), 5);
    EXPECT_GE(degrees.delta(i), 5);  // padding may add at most a few more
  }
}

TEST(CcwGraphTest, NoQueryIsEmpty) {
  auto rng = test_rng(13);
  const PoolingGraph g = make_constant_column_weight_graph(10, 40, 2, rng);
  for (Index j = 0; j < g.num_queries(); ++j) {
    EXPECT_GE(g.query_multiset(j).size(), 1u);
  }
}

TEST(CcwGraphTest, RejectsBadWeight) {
  auto rng = test_rng(14);
  EXPECT_THROW((void)make_constant_column_weight_graph(10, 5, 6, rng),
               ContractViolation);
  EXPECT_THROW((void)make_constant_column_weight_graph(10, 5, 0, rng),
               ContractViolation);
}

}  // namespace
}  // namespace npd::pooling
