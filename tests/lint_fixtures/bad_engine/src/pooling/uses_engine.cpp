#include <cstdint>
#include <random>

namespace npd {

// Second random engines beside rand::Rng: every engine line must flag.
std::uint64_t private_streams(std::uint64_t seed) {
  std::mt19937_64 wide(seed);
  std::mt19937 narrow(static_cast<std::uint32_t>(seed));
  std::minstd_rand lcg(1);
  std::minstd_rand0 lcg0(2);
  std::ranlux48 lux(3);
  std::knuth_b shuffled(4);
  std::default_random_engine fallback(5);
  return wide() ^ narrow() ^ lcg() ^ lcg0() ^ lux() ^ shuffled() ^
         fallback();
}

}  // namespace npd
