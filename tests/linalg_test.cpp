// Tests for the linear-algebra substrate: dense matrices, their
// products against brute-force references, and the counting-matrix
// construction from pooling graphs.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "amp/preprocess.hpp"
#include "core/instance.hpp"
#include "linalg/dense.hpp"
#include "linalg/vector_ops.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "solve/design_spec.hpp"
#include "util/assert.hpp"

namespace npd::linalg {
namespace {

// ------------------------------------------------------------ vector ops

TEST(VectorOpsTest, DotAndNorms) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(norm_squared(x), 14.0);
  EXPECT_DOUBLE_EQ(norm(std::vector<double>{3.0, 4.0}), 5.0);
}

TEST(VectorOpsTest, DotRejectsMismatchedSizes) {
  EXPECT_THROW((void)dot(std::vector<double>{1.0},
                         std::vector<double>{1.0, 2.0}),
               ContractViolation);
}

TEST(VectorOpsTest, AxpyAndScale) {
  const std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
}

TEST(VectorOpsTest, MeanAndDistance) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(distance_squared(std::vector<double>{1.0, 1.0},
                                    std::vector<double>{4.0, 5.0}),
                   9.0 + 16.0);
}

// ----------------------------------------------------------------- dense

TEST(DenseMatrixTest, ConstructionAndAccess) {
  DenseMatrix m(2, 3, 0.0);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(DenseMatrixTest, MatvecAgainstHandComputed) {
  DenseMatrix m(2, 3);
  // [1 2 3; 4 5 6]
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(0, 2) = 3;
  m.at(1, 0) = 4;
  m.at(1, 1) = 5;
  m.at(1, 2) = 6;

  const std::vector<double> x{1.0, 0.0, -1.0};
  std::vector<double> y(2);
  m.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);

  const std::vector<double> z{1.0, 1.0};
  std::vector<double> w(3);
  m.matvec_transpose(z, w);
  EXPECT_DOUBLE_EQ(w[0], 5.0);
  EXPECT_DOUBLE_EQ(w[1], 7.0);
  EXPECT_DOUBLE_EQ(w[2], 9.0);
}

TEST(DenseMatrixTest, MatvecValidatesDimensions) {
  DenseMatrix m(2, 3);
  std::vector<double> bad_x(2);
  std::vector<double> y(2);
  EXPECT_THROW(m.matvec(bad_x, y), ContractViolation);
  std::vector<double> x(3);
  std::vector<double> bad_y(3);
  EXPECT_THROW(m.matvec(x, bad_y), ContractViolation);
}

TEST(DenseMatrixTest, ColumnNormSquared) {
  DenseMatrix m(3, 2);
  m.at(0, 0) = 1;
  m.at(1, 0) = 2;
  m.at(2, 0) = 2;
  EXPECT_DOUBLE_EQ(m.column_norm_squared(0), 9.0);
  EXPECT_DOUBLE_EQ(m.column_norm_squared(1), 0.0);
}

TEST(DenseMatrixTest, RowSpanViews) {
  DenseMatrix m(2, 3);
  m.at(1, 0) = 7.0;
  const auto row = std::as_const(m).row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 7.0);
  m.row(0)[2] = 9.0;
  EXPECT_DOUBLE_EQ(m.at(0, 2), 9.0);
}

// ---------------------------------------------- dense kernel reference
//
// The blocked dense kernels promise, for every output element, exactly
// the IEEE operations of the naive loops below in the same order.  The
// comparisons are on bit patterns: a reordered accumulation typically
// moves a sum by an ulp, and a changed start value flips the sign of an
// exact zero — EXPECT_DOUBLE_EQ would forgive both.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << what << ": element " << i << " is " << got[i] << ", want "
        << want[i];
  }
}

std::vector<double> naive_matvec(const DenseMatrix& a,
                                 const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  for (Index r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (Index c = 0; c < a.cols(); ++c) {
      acc += a.at(r, c) * x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

std::vector<double> naive_matvec_transpose(const DenseMatrix& a,
                                           const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.cols()), 0.0);
  for (Index r = 0; r < a.rows(); ++r) {
    const double weight = x[static_cast<std::size_t>(r)];
    if (weight == 0.0) {
      continue;
    }
    for (Index c = 0; c < a.cols(); ++c) {
      y[static_cast<std::size_t>(c)] += weight * a.at(r, c);
    }
  }
  return y;
}

/// Mixed-sign values over 2^±20, about a quarter of them exact zeros, so
/// that summation order shows in the low bits and all-zero rows or
/// columns exercise the sign of an exact-zero sum.
double wide_value(rand::Rng& rng) {
  if (rng.uniform_real() < 0.25) {
    return 0.0;
  }
  const int exponent = static_cast<int>(rng.uniform_index(41)) - 20;
  return std::ldexp(rng.uniform_real() - 0.5, exponent);
}

std::vector<double> wide_vector(Index size, rand::Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(size));
  for (double& e : v) {
    e = wide_value(rng);
  }
  return v;
}

/// Products of `a` against the naive loops, with the transposed product's
/// weights seeded with both signed zeros (skipped rows) among the values.
/// `matvec` also runs on −x, so that for every sign pattern of x some
/// all-zero row sums products of −0.0 and shows the accumulator's start.
void expect_kernels_match_naive(const DenseMatrix& a, rand::Rng& rng,
                                const std::string& what) {
  std::vector<double> x = wide_vector(a.cols(), rng);
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  for (int pass = 0; pass < 2; ++pass) {
    a.matvec(x, y);
    expect_same_bits(y, naive_matvec(a, x), what + " matvec");
    for (double& v : x) {
      v = -v;
    }
  }

  std::vector<double> z = wide_vector(a.rows(), rng);
  for (std::size_t r = 0; r < z.size(); r += 5) {
    z[r] = (r / 5) % 2 == 0 ? 0.0 : -0.0;
  }
  std::vector<double> w(static_cast<std::size_t>(a.cols()));
  a.matvec_transpose(z, w);
  expect_same_bits(w, naive_matvec_transpose(a, z), what + " transpose");

  // All weights zero: every row is skipped and y stays +0.0.
  std::vector<double> zeros(z.size(), -0.0);
  a.matvec_transpose(zeros, w);
  expect_same_bits(w, std::vector<double>(w.size(), 0.0),
                   what + " transpose of -0.0 weights");
}

TEST(DenseKernelReferenceTest, BlockedProductsAreBitExact) {
  rand::Rng rng(31);
  for (const Index m : {1, 7, 8, 9, 17, 600}) {
    for (const Index n : {1, 3, 1000}) {
      DenseMatrix a(m, n);
      for (Index r = 0; r < m; ++r) {
        for (Index c = 0; c < n; ++c) {
          a.at(r, c) = wide_value(rng);
        }
      }
      expect_kernels_match_naive(
          a, rng, "m=" + std::to_string(m) + " n=" + std::to_string(n));
    }
  }
}

// Today's one-pass `standardize` against the three-step construction it
// replaced: counting matrix, then += −Γ/n on every entry, then *= 1/s.
// Then the blocked products on that B, for the paper design and the
// doubly regular design.
TEST(DenseKernelReferenceTest, StandardizeAndProductsOnDesigns) {
  struct Case {
    std::string design;
    Index n;
    Index m;
  };
  // Several sizes per design: B holds only a few distinct values (one per
  // multiplicity), so each size adds a fresh s to the comparison.
  for (const Case& t : {Case{"paper", 300, 149}, Case{"paper", 97, 200},
                        Case{"paper", 1000, 37}, Case{"regular:6", 400, 123},
                        Case{"regular:6", 150, 77},
                        Case{"regular:6", 1000, 600}}) {
    rand::Rng rng(32);
    const pooling::GraphDesign design =
        solve::parse_design_spec(t.design).instantiate(t.n);
    const noise::BitFlipChannel channel(0.1, 0.0);
    const core::Instance instance =
        core::make_instance(t.n, 8, t.m, design, channel, rng);
    const amp::AmpProblem problem = amp::standardize(
        instance, channel.linearization(t.n, 8, t.n / 2));

    DenseMatrix want = counting_matrix(instance.graph);
    const double gamma =
        static_cast<double>(instance.graph.query_multiset(0).size());
    const double mean_entry = gamma / static_cast<double>(t.n);
    const double s = std::sqrt(
        static_cast<double>(t.m) * mean_entry *
        (1.0 - 1.0 / static_cast<double>(t.n)));
    const double delta = -mean_entry;
    const double alpha = 1.0 / s;
    for (Index r = 0; r < t.m; ++r) {
      for (double& v : want.row(r)) {
        v += delta;
      }
    }
    for (Index r = 0; r < t.m; ++r) {
      for (double& v : want.row(r)) {
        v *= alpha;
      }
    }

    ASSERT_EQ(problem.b.rows(), t.m);
    ASSERT_EQ(problem.b.cols(), t.n);
    for (Index r = 0; r < t.m; ++r) {
      const auto got = problem.b.row(r);
      const auto ref = std::as_const(want).row(r);
      expect_same_bits(std::vector<double>(got.begin(), got.end()),
                       std::vector<double>(ref.begin(), ref.end()),
                       t.design + " n=" + std::to_string(t.n) + " B row " +
                           std::to_string(r));
    }
    expect_kernels_match_naive(problem.b, rng, t.design);
  }
}

// -------------------------------------------------------- counting matrix

TEST(CountingMatrixTest, EntriesAreMultiplicities) {
  pooling::PoolingGraphBuilder builder(5);
  (void)builder.add_query(std::vector<Index>{0, 0, 3});
  (void)builder.add_query(std::vector<Index>{1, 2, 2, 2});
  const pooling::PoolingGraph g = builder.build();

  const DenseMatrix a = counting_matrix(g);
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
}

TEST(CountingMatrixTest, RowSumsAreGamma) {
  rand::Rng rng(12);
  const pooling::QueryDesign d = pooling::paper_design(30);
  const pooling::PoolingGraph g = pooling::make_pooling_graph(30, 9, d, rng);
  const DenseMatrix a = counting_matrix(g);
  for (Index j = 0; j < a.rows(); ++j) {
    double sum = 0.0;
    for (Index i = 0; i < a.cols(); ++i) {
      sum += a.at(j, i);
    }
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(d.gamma));
  }
}

TEST(CountingMatrixTest, PoolSumsViaMatvec) {
  // A·σ must equal the exact pool sums — the identity the AMP model
  // preprocessing relies on.
  rand::Rng rng(13);
  const pooling::PoolingGraph g =
      pooling::make_pooling_graph(25, 10, pooling::paper_design(25), rng);
  const pooling::GroundTruth truth = pooling::make_ground_truth(25, 6, rng);
  const DenseMatrix a = counting_matrix(g);

  std::vector<double> sigma(25);
  for (Index i = 0; i < 25; ++i) {
    sigma[static_cast<std::size_t>(i)] =
        static_cast<double>(truth.bits[static_cast<std::size_t>(i)]);
  }
  std::vector<double> pool_sums(10);
  a.matvec(sigma, pool_sums);
  for (Index j = 0; j < 10; ++j) {
    const double expected = static_cast<double>(
        noise::exact_pool_sum(g.query_multiset(j), truth.bits));
    EXPECT_DOUBLE_EQ(pool_sums[static_cast<std::size_t>(j)], expected);
  }
}

}  // namespace
}  // namespace npd::linalg
