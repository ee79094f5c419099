#pragma once

/// \file distributions.hpp
/// Samplers beyond the basic draws on `Rng`: binomial, multinomial,
/// hypergeometric, and uniform subsets.  These back both the pooling model
/// (queries sample agents with replacement) and the statistical property
/// tests that pin the paper's Lemmas 3, 4, 6, 7 and 8.

#include <vector>

#include "rand/rng.hpp"
#include "util/types.hpp"

namespace npd::rand {

/// Draw from Binomial(trials, p).
[[nodiscard]] Index binomial(Rng& rng, Index trials, double p);

/// Draw counts from Multinomial(trials, probs).  `probs` must sum to 1
/// within 1e-9; the returned vector has one count per category and the
/// counts sum to `trials`.
[[nodiscard]] std::vector<Index> multinomial(Rng& rng, Index trials,
                                             const std::vector<double>& probs);

/// Draw from Hypergeometric(population, successes, draws): the number of
/// "success" items in a uniform sample of `draws` items without
/// replacement from a population with `successes` marked items.
[[nodiscard]] Index hypergeometric(Rng& rng, Index population, Index successes,
                                   Index draws);

/// Uniform random subset of size `k` from `{0, ..., n-1}` without
/// replacement, via Floyd's algorithm.  Output is sorted.
[[nodiscard]] std::vector<Index> sample_without_replacement(Rng& rng, Index n,
                                                            Index k);

/// Uniform random multiset of size `k` from `{0, ..., n-1}` with
/// replacement (the paper's query sampling primitive), appended to `out`
/// so a caller sampling many queries reuses one buffer.  Order is the
/// sampling order; duplicates possible.
void sample_with_replacement(Rng& rng, Index n, Index k,
                             std::vector<Index>& out);

/// Uniformly shuffle `items` in place (Fisher–Yates).
void shuffle(Rng& rng, std::vector<Index>& items);

}  // namespace npd::rand
