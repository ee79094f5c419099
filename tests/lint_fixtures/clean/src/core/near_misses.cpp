#include <string>

#include "noise/channel.hpp"
#include "pooling/pooling_graph.hpp"
#include "rand/rng.hpp"
#include "util/types.hpp"

namespace npd {

// Near-misses the lint must NOT flag:
//  - banned calls inside comments:   std::rand(); srand(7); time(nullptr);
//  - banned tokens in string literals (below);
//  - identifiers merely containing banned words;
//  - a char literal and a digit separator near a quote;
//  - the in-tree engine, and std engines named only in comments and
//    strings: std::mt19937_64 reference(5489); std::minstd_rand lcg;
/* std::random_device inside a block comment is fine too. */
std::string describe_bans() {
  const std::string docs =
      "never call std::rand, srand(, time( or std::random_device here";
  const std::string engines =
      "nor std::mt19937, std::ranlux24_base or std::knuth_b";
  rand::Mt19937_64 engine(5489);  // the one engine, under its own name
  long ranlux48_seen = 0;         // engine name as an identifier prefix
  long my_mt19937_64_draws = 0;   // ... and embedded mid-identifier
  ranlux48_seen += my_mt19937_64_draws + static_cast<long>(engine() & 1);
  const long long big = 1'000'000;
  const char quote = '"';
  long runtime_estimate = 0;     // "time" embedded in an identifier
  long last_write_time_ns = 0;   // ditto, suffix position
  runtime_estimate += big + quote + last_write_time_ns;
  return docs + engines + std::to_string(runtime_estimate + ranlux48_seen);
}

}  // namespace npd
