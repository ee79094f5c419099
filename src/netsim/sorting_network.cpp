#include "netsim/sorting_network.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace npd::netsim {

SortingSchedule::SortingSchedule(Index wire_count,
                                 std::vector<std::vector<Comparator>> layers)
    : wire_count_(wire_count), layers_(std::move(layers)) {
  NPD_CHECK(wire_count >= 1);
  for (const auto& layer : layers_) {
    for (const Comparator& c : layer) {
      NPD_CHECK_MSG(c.lo >= 0 && c.lo < wire_count_ && c.hi >= 0 &&
                        c.hi < wire_count_ && c.lo != c.hi,
                    "comparator out of range");
    }
    total_comparators_ += static_cast<Index>(layer.size());
  }
}

SortingSchedule make_odd_even_schedule(Index n) {
  NPD_CHECK(n >= 1);
  std::vector<std::vector<Comparator>> layers;

  // Batcher's odd-even mergesort, iterative formulation for arbitrary n
  // (Knuth TAOCP vol. 3, 5.3.4).  Every (p, k) pass touches disjoint
  // wire pairs, so each pass is one parallel layer of at most n/2
  // comparators.
  for (Index p = 1; p < n; p *= 2) {
    // Wires a and b lie in the same 2p-block iff a / 2p == b / 2p; 2p is
    // a power of two, so that is "a and b agree above the low bits".
    const Index block_mask = ~(2 * p - 1);
    for (Index k = p; k >= 1; k /= 2) {
      std::vector<Comparator> layer;
      layer.reserve(static_cast<std::size_t>(n / 2));
      for (Index j = k % p; j + k < n; j += 2 * k) {
        const Index i_max = std::min(k, n - j - k);
        for (Index i = 0; i < i_max; ++i) {
          if ((((i + j) ^ (i + j + k)) & block_mask) == 0) {
            layer.push_back(Comparator{.lo = i + j, .hi = i + j + k});
          }
        }
      }
      if (!layer.empty()) {
        layers.push_back(std::move(layer));
      }
    }
  }
  return SortingSchedule(n, std::move(layers));
}

Index next_pow2(Index n) {
  NPD_CHECK(n >= 1);
  Index p = 1;
  while (p < n) {
    p *= 2;
  }
  return p;
}

SortingSchedule make_bitonic_schedule(Index n) {
  NPD_CHECK(n >= 1);
  const Index wires = next_pow2(n);
  std::vector<std::vector<Comparator>> layers;

  // Classic iterative bitonic sorter.  The direction of a comparator at
  // position i in stage k is encoded by ordering (lo, hi): ascending
  // blocks put the minimum at the smaller index, descending blocks invert.
  for (Index k = 2; k <= wires; k *= 2) {
    for (Index j = k / 2; j >= 1; j /= 2) {
      std::vector<Comparator> layer;
      for (Index i = 0; i < wires; ++i) {
        const Index partner = i ^ j;
        if (partner <= i) {
          continue;
        }
        const bool ascending = (i & k) == 0;
        if (ascending) {
          layer.push_back(Comparator{.lo = i, .hi = partner});
        } else {
          layer.push_back(Comparator{.lo = partner, .hi = i});
        }
      }
      layers.push_back(std::move(layer));
    }
  }
  return SortingSchedule(wires, std::move(layers));
}

void apply_schedule(const SortingSchedule& schedule,
                    std::vector<double>& values) {
  NPD_CHECK_MSG(static_cast<Index>(values.size()) <= schedule.wire_count(),
                "more values than wires");
  const std::size_t original_size = values.size();
  values.resize(static_cast<std::size_t>(schedule.wire_count()),
                std::numeric_limits<double>::infinity());
  for (Index l = 0; l < schedule.depth(); ++l) {
    for (const Comparator& c : schedule.layer(l)) {
      double& lo = values[static_cast<std::size_t>(c.lo)];
      double& hi = values[static_cast<std::size_t>(c.hi)];
      if (lo > hi) {
        std::swap(lo, hi);
      }
    }
  }
  values.resize(original_size);
}

}  // namespace npd::netsim
