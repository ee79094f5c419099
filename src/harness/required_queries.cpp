#include "harness/required_queries.hpp"

#include <limits>

#include "pooling/query_design.hpp"
#include "util/assert.hpp"

namespace npd::harness {

namespace {

/// Strict separation check on the centered scores: every 1-agent must
/// outscore every 0-agent.  O(n), no allocation.
bool scores_separate(const core::ScoreState& scores,
                     const pooling::GroundTruth& truth) {
  double min_one = std::numeric_limits<double>::infinity();
  double max_zero = -std::numeric_limits<double>::infinity();
  const Index n = truth.n();
  for (Index i = 0; i < n; ++i) {
    const double s = scores.centered_score(i);
    if (truth.bits[static_cast<std::size_t>(i)] != 0) {
      if (s < min_one) {
        min_one = s;
      }
    } else {
      if (s > max_zero) {
        max_zero = s;
      }
    }
  }
  return min_one > max_zero;
}

}  // namespace

RequiredQueriesResult required_queries_for_truth(
    const pooling::GroundTruth& truth, const pooling::QueryDesign& design,
    const noise::NoiseChannel& channel, rand::Rng& rng,
    const RequiredQueriesOptions& options) {
  NPD_CHECK(options.max_queries >= 1);
  NPD_CHECK(options.check_interval >= 1);
  const Index n = truth.n();
  NPD_CHECK_MSG(truth.k() >= 1 && truth.k() < n,
                "protocol needs 1 <= k < n for a meaningful separation");

  core::ScoreState scores(n, truth.k(), options.centering);
  std::vector<Index> sampled;  // one buffer, reused by every query
  for (Index m = 1; m <= options.max_queries; ++m) {
    sampled.clear();
    pooling::sample_query(design, n, rng, sampled);
    const double result = channel.measure(sampled, truth.bits, rng);
    scores.apply_query(sampled, result);
    if (m % options.check_interval == 0 && scores_separate(scores, truth)) {
      return RequiredQueriesResult{.m = m, .reached = true};
    }
  }
  return RequiredQueriesResult{.m = options.max_queries, .reached = false};
}

RequiredQueriesResult required_queries(Index n, Index k,
                                       const pooling::QueryDesign& design,
                                       const noise::NoiseChannel& channel,
                                       rand::Rng& rng,
                                       const RequiredQueriesOptions& options) {
  const pooling::GroundTruth truth = pooling::make_ground_truth(n, k, rng);
  return required_queries_for_truth(truth, design, channel, rng, options);
}

}  // namespace npd::harness
