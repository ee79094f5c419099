#include <cstdint>
#include <random>

namespace npd::rand {

// src/rand is exempt from the other determinism bans, not from this one:
// a std engine next to the in-tree Mt19937_64 must still flag.
std::uint64_t reference_draw(std::uint64_t seed) {
  std::mt19937_64 reference(seed);
  return reference();
}

}  // namespace npd::rand
