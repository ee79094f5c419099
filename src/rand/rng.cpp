#include "rand/rng.hpp"

namespace npd::rand {

static_assert(Rng::min() < Rng::max(),
              "Rng must satisfy UniformRandomBitGenerator");

void Mt19937_64::refill() {
  constexpr std::size_t kShift = 156;  // the recurrence's middle word
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
  // x ^ (y >> 1) ^ (y odd ? kMatrix : 0), without the branch.
  const auto twist = [](std::uint64_t x, std::uint64_t hi, std::uint64_t lo) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return x ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  // Three segments so each loop reads only words it has not yet written
  // (the first) or words already updated this pass (the second), which
  // lets the compiler vectorize both.
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kStateWords - kShift; ++k) {
    x[k] = twist(x[k + kShift], x[k], x[k + 1]);
  }
  for (std::size_t k = kStateWords - kShift; k < kStateWords - 1; ++k) {
    x[k] = twist(x[k + kShift - kStateWords], x[k], x[k + 1]);
  }
  x[kStateWords - 1] = twist(x[kShift - 1], x[kStateWords - 1], x[0]);

  for (std::size_t k = 0; k < kStateWords; ++k) {
    std::uint64_t z = x[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    block_[k] = z;
  }
  next_ = 0;
}

}  // namespace npd::rand
