#pragma once

// Degrees of a pooling graph for the design-property tests.  The graph
// keeps only its query side; Δ_i (with multiplicity) and Δ*_i (distinct)
// are counted the way Algorithm 1's agents count them, by feeding every
// query's distinct list through core::ScoreState.

#include "core/scores.hpp"
#include "pooling/pooling_graph.hpp"

namespace npd::test {

/// A ScoreState over all of `g`'s queries (zero results, k = 0), read for
/// its `delta(i)` and `delta_star(i)`.
inline core::ScoreState graph_degrees(const pooling::PoolingGraph& g) {
  core::ScoreState degrees(g.num_agents(), 0);
  for (Index j = 0; j < g.num_queries(); ++j) {
    degrees.apply_query_distinct(g.query_distinct(j), g.query_multiplicity(j),
                                 0.0);
  }
  return degrees;
}

}  // namespace npd::test
