#include "pooling/query_design.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rand/distributions.hpp"
#include "util/assert.hpp"

namespace npd::pooling {

namespace {

/// Degenerate design parameters are *usage* errors (a user-supplied n or
/// fraction), so they surface as `std::invalid_argument` — matching the
/// registry's treatment of unknown solver/scenario names — rather than
/// as contract violations from deep inside a worker thread.
[[noreturn]] void usage_error(const std::string& message) {
  throw std::invalid_argument(message);
}

}  // namespace

QueryDesign paper_design(Index n) {
  if (n < 2) {
    usage_error("paper design: need n >= 2");
  }
  return QueryDesign{.gamma = n / 2, .mode = SamplingMode::WithReplacement};
}

QueryDesign fractional_design(Index n, double gamma_fraction,
                              SamplingMode mode) {
  if (n < 2) {
    usage_error("fractional design: need n >= 2");
  }
  if (!(gamma_fraction > 0.0 && gamma_fraction <= 1.0)) {
    usage_error("fractional design: pool fraction must lie in (0, 1]");
  }
  const auto gamma = static_cast<Index>(
      std::llround(gamma_fraction * static_cast<double>(n)));
  if (gamma < 1) {
    usage_error("fractional design: pool fraction rounds to an empty pool "
                "(gamma = 0)");
  }
  return QueryDesign{.gamma = std::min<Index>(gamma, n), .mode = mode};
}

void sample_query(const QueryDesign& design, Index n, rand::Rng& rng,
                  std::vector<Index>& out) {
  NPD_CHECK(n > 0);
  NPD_CHECK_MSG(design.gamma > 0, "query size must be positive");
  switch (design.mode) {
    case SamplingMode::WithReplacement:
      rand::sample_with_replacement(rng, n, design.gamma, out);
      return;
    case SamplingMode::WithoutReplacement: {
      NPD_CHECK_MSG(design.gamma <= n,
                    "cannot sample more agents than exist without replacement");
      const auto subset = rand::sample_without_replacement(rng, n, design.gamma);
      out.insert(out.end(), subset.begin(), subset.end());
      return;
    }
    case SamplingMode::Bernoulli: {
      NPD_CHECK_MSG(design.gamma <= n,
                    "Bernoulli inclusion probability would exceed 1");
      const double inclusion =
          static_cast<double>(design.gamma) / static_cast<double>(n);
      const std::size_t start = out.size();
      for (Index agent = 0; agent < n; ++agent) {
        if (rng.bernoulli(inclusion)) {
          out.push_back(agent);
        }
      }
      if (out.size() == start) {
        // Keep queries nonempty so downstream pool-size math is safe.
        out.push_back(rng.uniform_index(n));
      }
      return;
    }
  }
  NPD_CHECK_MSG(false, "unreachable: unknown sampling mode");
}

std::vector<Index> sample_query(const QueryDesign& design, Index n,
                                rand::Rng& rng) {
  std::vector<Index> query;
  query.reserve(static_cast<std::size_t>(std::max<Index>(design.gamma, 0)));
  sample_query(design, n, rng, query);
  return query;
}

}  // namespace npd::pooling
