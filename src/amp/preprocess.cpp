#include "amp/preprocess.hpp"

#include <cmath>
#include <span>

#include "util/assert.hpp"

namespace npd::amp {

AmpProblem standardize(const core::Instance& instance,
                       const noise::Linearization& lin) {
  NPD_CHECK_MSG(lin.gain > 0.0, "AMP needs a positive channel gain");
  const Index n = instance.n();
  const Index m = instance.m();
  const Index k = instance.k();
  NPD_CHECK(m > 0);

  AmpProblem problem;
  problem.n = n;
  problem.m = m;
  problem.k = k;
  problem.pi = static_cast<double>(k) / static_cast<double>(n);

  // The paper's design has a fixed pool size; read Γ from the graph (all
  // rows equal under `paper_design`).
  const double gamma =
      static_cast<double>(instance.graph.query_multiset(0).size());
  const double mean_entry = gamma / static_cast<double>(n);
  const double entry_var = mean_entry * (1.0 - 1.0 / static_cast<double>(n));
  const double s = std::sqrt(static_cast<double>(m) * entry_var);
  NPD_CHECK_MSG(s > 0.0, "degenerate design: zero entry variance");

  // B in one pass: every entry is (A_ji + -Γ/n)·(1/s), the same two
  // roundings as centering and then scaling the counting matrix.  Entries
  // with A_ji = 0 all share one value, so only the touched ones are
  // written after the fill.
  const double neg_mean = -mean_entry;
  const double inv_s = 1.0 / s;
  problem.b = linalg::DenseMatrix(m, n, (0.0 + neg_mean) * inv_s);
  for (Index j = 0; j < m; ++j) {
    const std::span<double> row = problem.b.row(j);
    const auto agents = instance.graph.query_distinct(j);
    const auto counts = instance.graph.query_multiplicity(j);
    for (std::size_t idx = 0; idx < agents.size(); ++idx) {
      row[static_cast<std::size_t>(agents[idx])] =
          (static_cast<double>(counts[idx]) + neg_mean) * inv_s;
    }
  }

  problem.y.resize(static_cast<std::size_t>(m));
  const double centering =
      lin.offset + lin.gain * gamma * static_cast<double>(k) /
                       static_cast<double>(n);
  for (Index j = 0; j < m; ++j) {
    problem.y[static_cast<std::size_t>(j)] =
        (instance.results[static_cast<std::size_t>(j)] - centering) /
        (lin.gain * s);
  }
  problem.effective_noise_var =
      lin.noise_var / (lin.gain * lin.gain * s * s);
  return problem;
}

}  // namespace npd::amp
