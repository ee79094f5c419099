#include "linalg/dense.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace npd::linalg {

DenseMatrix::DenseMatrix(Index rows, Index cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            fill) {
  NPD_CHECK(rows >= 0 && cols >= 0);
}

std::size_t DenseMatrix::flat(Index r, Index c) const {
  NPD_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(c);
}

std::span<const double> DenseMatrix::row(Index r) const {
  NPD_CHECK(r >= 0 && r < rows_);
  return {data_.data() + flat(r, 0), static_cast<std::size_t>(cols_)};
}

std::span<double> DenseMatrix::row(Index r) {
  NPD_CHECK(r >= 0 && r < rows_);
  return {data_.data() + flat(r, 0), static_cast<std::size_t>(cols_)};
}

// Both products are register-blocked for speed but keep, for every output
// element, exactly the IEEE operations of the naive loops in the same
// order: blocking only interleaves independent accumulation chains, it
// never reassociates one.  (The build disables FMA contraction, so a
// multiply-add stays two roundings on every target.)

void DenseMatrix::matvec(std::span<const double> x,
                         std::span<double> y) const {
  NPD_CHECK(static_cast<Index>(x.size()) == cols_);
  NPD_CHECK(static_cast<Index>(y.size()) == rows_);
  const auto rows = static_cast<std::size_t>(rows_);
  const auto cols = static_cast<std::size_t>(cols_);
  const double* xs = x.data();
  // A single row is one serial `acc +=` chain, bound by FP-add latency.
  // Eight rows per sweep give eight independent chains that share each
  // load of x_c; each chain still sums its row from 0.0 in column order.
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    const double* p = data_.data() + r * cols;
    std::array<double, 8> acc{};
    for (std::size_t c = 0; c < cols; ++c) {
      const double xc = xs[c];
      for (std::size_t k = 0; k < acc.size(); ++k) {
        acc[k] += p[k * cols + c] * xc;
      }
    }
    std::copy(acc.begin(), acc.end(), y.subspan(r).begin());
  }
  for (; r < rows; ++r) {
    const double* p = data_.data() + r * cols;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      acc += p[c] * xs[c];
    }
    y[r] = acc;
  }
}

void DenseMatrix::matvec_transpose(std::span<const double> x,
                                   std::span<double> y) const {
  NPD_CHECK(static_cast<Index>(x.size()) == rows_);
  NPD_CHECK(static_cast<Index>(y.size()) == cols_);
  const auto cols = static_cast<std::size_t>(cols_);
  double* ys = y.data();
  std::fill(y.begin(), y.end(), 0.0);
  // Row-major transposed product: accumulate row r scaled by x_r — keeps
  // memory access sequential.  Rows with x_r == 0 (either sign) are
  // skipped.  The others are applied four at a time, so y is read and
  // written once per four rows; each y_c still receives the rows' terms
  // one by one in ascending row order.
  std::array<const double*, 4> block_rows{};
  std::array<double, 4> block_weights{};
  std::size_t pending = 0;
  for (Index r = 0; r < rows_; ++r) {
    const double weight = x[static_cast<std::size_t>(r)];
    if (weight == 0.0) {
      continue;
    }
    block_rows[pending] = data_.data() + static_cast<std::size_t>(r) * cols;
    block_weights[pending] = weight;
    if (++pending < block_rows.size()) {
      continue;
    }
    pending = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      double acc = ys[c];
      for (std::size_t k = 0; k < block_rows.size(); ++k) {
        acc += block_weights[k] * block_rows[k][c];
      }
      ys[c] = acc;
    }
  }
  for (std::size_t b = 0; b < pending; ++b) {
    const double* rb = block_rows[b];
    const double wb = block_weights[b];
    for (std::size_t c = 0; c < cols; ++c) {
      ys[c] += wb * rb[c];
    }
  }
}

double DenseMatrix::column_norm_squared(Index c) const {
  NPD_CHECK(c >= 0 && c < cols_);
  double acc = 0.0;
  for (Index r = 0; r < rows_; ++r) {
    const double v = at(r, c);
    acc += v * v;
  }
  return acc;
}

DenseMatrix counting_matrix(const pooling::PoolingGraph& graph) {
  DenseMatrix a(graph.num_queries(), graph.num_agents(), 0.0);
  for (Index j = 0; j < graph.num_queries(); ++j) {
    const auto agents = graph.query_distinct(j);
    const auto counts = graph.query_multiplicity(j);
    for (std::size_t idx = 0; idx < agents.size(); ++idx) {
      a.at(j, agents[idx]) = static_cast<double>(counts[idx]);
    }
  }
  return a;
}

}  // namespace npd::linalg
