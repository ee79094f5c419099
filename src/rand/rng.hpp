#pragma once

/// \file rng.hpp
/// Deterministic random number generation for the whole library.
///
/// The paper's simulation software uses the Mersenne Twister
/// `mt19937_64` from the C++11 `<random>` header.  The generator is
/// implemented in-tree (`Mt19937_64`, below), several times cheaper per
/// draw than libstdc++'s engine, and its output stream is exactly
/// `<random>`'s `mt19937_64` stream (same seeding, same sequence), which
/// keeps every pinned result of the reproduction.  `RngStreamTest` in
/// tests/rand_test.cpp pins the two engines, and the std distributions
/// driven by them, against each other.
///
/// All randomness in the library flows through `npd::rand::Rng` instances
/// passed explicitly (never global state), so every experiment is
/// reproducible from its seed and independent random streams can be derived
/// for replicated runs (via a SplitMix64 hash of the parent seed and a
/// stream tag).

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace npd::rand {

/// SplitMix64 step: the standard 64-bit finalizer used to derive
/// well-separated child seeds from (seed, tag) pairs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a 64-bit over `text` from `basis` (default: the standard offset
/// basis).  The one string hash of the repo: the engine's seed
/// derivation hashes scenario ids with it, and the shard result cache
/// builds content addresses from it.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view text, std::uint64_t basis = 0xcbf29ce484222325ULL) {
  std::uint64_t h = basis;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// MT19937-64 (Matsumoto and Nishimura) with the seeding and output
/// sequence of `<random>`'s `mt19937_64`.  libstdc++'s engine twists with
/// a branch per word and tempers on every call; here one out-of-line
/// `refill` twists branch-free and tempers all 312 outputs into `block_`,
/// so `operator()` is a load and an increment.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::uint64_t seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  result_type operator()() {
    if (next_ == kStateWords) [[unlikely]] {
      refill();
    }
    return block_[next_++];
  }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

 private:
  static constexpr std::size_t kStateWords = 312;

  /// Twist `state_` once and temper it into `block_`; resets `next_`.
  void refill();

  std::array<std::uint64_t, kStateWords> state_{};
  std::array<std::uint64_t, kStateWords> block_{};  // tempered outputs
  std::size_t next_ = kStateWords;  // next unread word of block_
};

/// The library-wide random engine: a seeded `Mt19937_64` (the paper's
/// generator) plus convenience draws for the distributions the model needs.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// The seed this engine was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Derive an independent child generator for stream `tag`.
  /// Children with distinct tags (or from distinct parents) are
  /// statistically independent for our purposes.
  [[nodiscard]] Rng derive(std::uint64_t tag) const {
    return Rng(splitmix64(seed_ ^ splitmix64(tag + 0x1234567ULL)));
  }

  /// Raw 64 random bits (UniformRandomBitGenerator interface).
  result_type operator()() { return engine_(); }
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }

  /// Uniform integer in `[0, bound)`.
  [[nodiscard]] Index uniform_index(Index bound) {
    NPD_ASSERT(bound > 0);
    return std::uniform_int_distribution<Index>(0, bound - 1)(engine_);
  }

  /// Uniform real in `[0, 1)`.
  [[nodiscard]] double uniform_real() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Bernoulli draw with success probability `p` in `[0, 1]`.
  [[nodiscard]] bool bernoulli(double p) {
    NPD_ASSERT(p >= 0.0 && p <= 1.0);
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Gaussian draw with the given mean and standard deviation.
  [[nodiscard]] double gaussian(double mean, double stddev) {
    NPD_ASSERT(stddev >= 0.0);
    if (stddev == 0.0) {
      return mean;
    }
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Access the underlying engine for use with `std::*_distribution`.
  [[nodiscard]] Mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Mt19937_64 engine_;
};

}  // namespace npd::rand
