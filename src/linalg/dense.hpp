#pragma once

/// \file dense.hpp
/// Row-major dense matrix.  The paper's pooling matrices have density
/// ≈ 1 − e^{−1/2} ≈ 0.39 (each agent appears in a query with that
/// probability), so AMP's per-iteration products A·x and Aᵀ·z run on a
/// dense representation; the CSR variant in sparse.hpp exists for the
/// sparse ablation designs.

#include <span>
#include <vector>

#include "pooling/pooling_graph.hpp"
#include "util/types.hpp"

namespace npd::linalg {

/// Dense rows×cols matrix of doubles, row-major.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(Index rows, Index cols, double fill = 0.0);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }

  [[nodiscard]] double& at(Index r, Index c) {
    return data_[flat(r, c)];
  }
  [[nodiscard]] double at(Index r, Index c) const {
    return data_[flat(r, c)];
  }

  /// Row `r` as a span.
  [[nodiscard]] std::span<const double> row(Index r) const;
  [[nodiscard]] std::span<double> row(Index r);

  /// y = A·x (y must have `rows()` entries, x `cols()`).  Each y_r is
  /// summed from 0.0 in ascending column order, so it is bit-identical to
  /// a naive per-row loop.
  void matvec(std::span<const double> x, std::span<double> y) const;

  /// y = Aᵀ·x (y must have `cols()` entries, x `rows()`).  Each y_c is
  /// summed from 0.0 over the rows with x_r ≠ 0 in ascending row order,
  /// bit-identical to a naive per-row axpy loop.
  void matvec_transpose(std::span<const double> x, std::span<double> y) const;

  /// Squared Euclidean norm of column `c`.
  [[nodiscard]] double column_norm_squared(Index c) const;

 private:
  [[nodiscard]] std::size_t flat(Index r, Index c) const;

  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

/// The m×n counting matrix A of the pooling graph: A(j, i) = multiplicity
/// of agent i in query j (Section III: "the pooling graph as an adjacency
/// matrix A ∈ N₀^{m×n}").
[[nodiscard]] DenseMatrix counting_matrix(const pooling::PoolingGraph& graph);

}  // namespace npd::linalg
