#include "rand/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_set>

#include "util/assert.hpp"

namespace npd::rand {

Index binomial(Rng& rng, Index trials, double p) {
  NPD_CHECK(trials >= 0);
  NPD_CHECK(p >= 0.0 && p <= 1.0);
  if (trials == 0 || p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return trials;
  }
  return std::binomial_distribution<Index>(trials, p)(rng.engine());
}

std::vector<Index> multinomial(Rng& rng, Index trials,
                               const std::vector<double>& probs) {
  NPD_CHECK(!probs.empty());
  double total = 0.0;
  for (const double p : probs) {
    NPD_CHECK_MSG(p >= 0.0, "multinomial probabilities must be nonnegative");
    total += p;
  }
  NPD_CHECK_MSG(std::fabs(total - 1.0) < 1e-9,
                "multinomial probabilities must sum to 1");

  // Sequential conditional-binomial decomposition: category i receives
  // Binomial(remaining, p_i / remaining_mass) draws.
  std::vector<Index> counts(probs.size(), 0);
  Index remaining = trials;
  double mass = 1.0;
  for (std::size_t i = 0; i + 1 < probs.size() && remaining > 0; ++i) {
    const double conditional =
        mass > 0.0 ? std::clamp(probs[i] / mass, 0.0, 1.0) : 0.0;
    counts[i] = binomial(rng, remaining, conditional);
    remaining -= counts[i];
    mass -= probs[i];
  }
  counts.back() += remaining;
  return counts;
}

Index hypergeometric(Rng& rng, Index population, Index successes,
                     Index draws) {
  NPD_CHECK(population >= 0);
  NPD_CHECK(successes >= 0 && successes <= population);
  NPD_CHECK(draws >= 0 && draws <= population);

  // Sequential sampling: O(draws) per variate, which is fine at the sizes
  // the tests and ablation benches use.
  Index hits = 0;
  Index good = successes;
  Index remaining = population;
  for (Index i = 0; i < draws; ++i) {
    const double p_hit =
        remaining > 0 ? static_cast<double>(good) / static_cast<double>(remaining)
                      : 0.0;
    if (rng.bernoulli(p_hit)) {
      ++hits;
      --good;
    }
    --remaining;
  }
  return hits;
}

std::vector<Index> sample_without_replacement(Rng& rng, Index n, Index k) {
  NPD_CHECK(n >= 0);
  NPD_CHECK(k >= 0 && k <= n);

  // Floyd's algorithm: k iterations, expected O(k) set operations.
  std::unordered_set<Index> chosen;
  chosen.reserve(static_cast<std::size_t>(k));
  for (Index j = n - k; j < n; ++j) {
    const Index t = rng.uniform_index(j + 1);
    if (chosen.contains(t)) {
      chosen.insert(j);
    } else {
      chosen.insert(t);
    }
  }
  std::vector<Index> result(chosen.begin(), chosen.end());
  std::sort(result.begin(), result.end());
  return result;
}

void sample_with_replacement(Rng& rng, Index n, Index k,
                             std::vector<Index>& out) {
  NPD_CHECK(n > 0);
  NPD_CHECK(k >= 0);
  for (Index i = 0; i < k; ++i) {
    out.push_back(rng.uniform_index(n));
  }
}

void shuffle(Rng& rng, std::vector<Index>& items) {
  if (items.size() < 2) {
    return;
  }
  for (std::size_t i = items.size() - 1; i > 0; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_index(static_cast<Index>(i) + 1));
    std::swap(items[i], items[j]);
  }
}

}  // namespace npd::rand
