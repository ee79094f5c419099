#include "pooling/pooling_graph.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "rand/distributions.hpp"
#include "util/assert.hpp"

namespace npd::pooling {

std::span<const Index> PoolingGraph::query_multiset(Index j) const {
  NPD_ASSERT(j >= 0 && j < num_queries());
  const auto lo = static_cast<std::size_t>(query_offsets_[static_cast<std::size_t>(j)]);
  const auto hi =
      static_cast<std::size_t>(query_offsets_[static_cast<std::size_t>(j) + 1]);
  return {query_agents_.data() + lo, hi - lo};
}

std::span<const Index> PoolingGraph::query_distinct(Index j) const {
  NPD_ASSERT(j >= 0 && j < num_queries());
  const auto lo =
      static_cast<std::size_t>(distinct_offsets_[static_cast<std::size_t>(j)]);
  const auto hi =
      static_cast<std::size_t>(distinct_offsets_[static_cast<std::size_t>(j) + 1]);
  return {distinct_agents_.data() + lo, hi - lo};
}

std::span<const Index> PoolingGraph::query_multiplicity(Index j) const {
  NPD_ASSERT(j >= 0 && j < num_queries());
  const auto lo =
      static_cast<std::size_t>(distinct_offsets_[static_cast<std::size_t>(j)]);
  const auto hi =
      static_cast<std::size_t>(distinct_offsets_[static_cast<std::size_t>(j) + 1]);
  return {distinct_counts_.data() + lo, hi - lo};
}

PoolingGraphBuilder::PoolingGraphBuilder(Index n) : n_(n) {
  NPD_CHECK_MSG(n > 0, "graph needs at least one agent");
  graph_.n_ = n;
  tally_.assign(static_cast<std::size_t>(n), 0);
  seen_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
}

void PoolingGraphBuilder::reserve(Index queries, Index edges) {
  NPD_CHECK(queries >= 0 && edges >= 0);
  const auto q = graph_.query_offsets_.size() + static_cast<std::size_t>(queries);
  graph_.query_offsets_.reserve(q);
  graph_.distinct_offsets_.reserve(q);
  // A query has at most as many distinct agents as edges, so the edge
  // count bounds the distinct arrays too.
  graph_.query_agents_.reserve(graph_.query_agents_.size() +
                               static_cast<std::size_t>(edges));
  graph_.distinct_agents_.reserve(graph_.distinct_agents_.size() +
                                  static_cast<std::size_t>(edges));
  graph_.distinct_counts_.reserve(graph_.distinct_counts_.size() +
                                  static_cast<std::size_t>(edges));
}

Index PoolingGraphBuilder::add_query(std::span<const Index> sampled_agents) {
  NPD_CHECK_MSG(!sampled_agents.empty(), "query must sample at least one agent");
  // One range check over the whole span, before anything is mutated: the
  // unsigned compare folds `agent < 0` into `agent >= n`.
  bool in_range = true;
  for (const Index agent : sampled_agents) {
    in_range &= static_cast<std::uint64_t>(agent) <
                static_cast<std::uint64_t>(n_);
  }
  NPD_CHECK_MSG(in_range, "agent id out of range");

  const std::size_t begin = graph_.query_agents_.size();
  graph_.query_agents_.insert(graph_.query_agents_.end(),
                              sampled_agents.begin(), sampled_agents.end());
  return close_query(begin);
}

Index PoolingGraphBuilder::add_random_query(const QueryDesign& design,
                                            rand::Rng& rng) {
  // The sampler validates the design before its first draw and emits only
  // agents in [0, n), so the appended edges need no further check.
  const std::size_t begin = graph_.query_agents_.size();
  sample_query(design, n_, rng, graph_.query_agents_);
  return close_query(begin);
}

Index PoolingGraphBuilder::close_query(std::size_t begin) {
  const std::size_t end = graph_.query_agents_.size();
  const Index* edges = graph_.query_agents_.data();
  Index* tally = tally_.data();
  std::uint64_t* seen = seen_.data();
  for (std::size_t e = begin; e < end; ++e) {
    const auto agent = static_cast<std::size_t>(edges[e]);
    ++tally[agent];
    std::uint64_t& word = seen[agent / 64];
    if (word == 0) {
      touched_.push_back(agent / 64);
    }
    word |= std::uint64_t{1} << (agent % 64);
  }
  graph_.query_offsets_.push_back(static_cast<Index>(end));

  // Ascending words, ascending bits within a word: distinct agents come
  // out sorted, exactly as a sort-and-run-length dedup would give them.
  std::sort(touched_.begin(), touched_.end());
  std::size_t distinct = 0;
  for (const std::size_t w : touched_) {
    distinct += static_cast<std::size_t>(std::popcount(seen[w]));
  }
  const std::size_t base = graph_.distinct_agents_.size();
  graph_.distinct_agents_.resize(base + distinct);
  graph_.distinct_counts_.resize(base + distinct);
  Index* out_agent = graph_.distinct_agents_.data() + base;
  Index* out_count = graph_.distinct_counts_.data() + base;
  for (const std::size_t w : touched_) {
    for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
      const std::size_t agent =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      *out_agent++ = static_cast<Index>(agent);
      *out_count++ = tally[agent];
      tally[agent] = 0;
    }
    seen[w] = 0;
  }
  touched_.clear();
  graph_.distinct_offsets_.push_back(
      static_cast<Index>(graph_.distinct_agents_.size()));

  return static_cast<Index>(graph_.query_offsets_.size()) - 2;
}

Index PoolingGraphBuilder::num_queries_so_far() const {
  return static_cast<Index>(graph_.query_offsets_.size()) - 1;
}

PoolingGraph PoolingGraphBuilder::build() {
  PoolingGraph result = std::move(graph_);
  graph_ = PoolingGraph{};
  graph_.n_ = n_;
  return result;
}

PoolingGraph make_pooling_graph(Index n, Index m, const QueryDesign& design,
                                rand::Rng& rng) {
  NPD_CHECK(m >= 0);
  PoolingGraphBuilder builder(n);
  builder.reserve(m, m * std::max<Index>(design.gamma, 0));
  for (Index j = 0; j < m; ++j) {
    (void)builder.add_random_query(design, rng);
  }
  return builder.build();
}

PoolingGraph make_constant_column_weight_graph(Index n, Index m,
                                               Index column_weight,
                                               rand::Rng& rng) {
  NPD_CHECK(n > 0);
  NPD_CHECK(m > 0);
  NPD_CHECK_MSG(column_weight > 0 && column_weight <= m,
                "column weight must lie in [1, m]");

  // Each agent joins `column_weight` distinct queries chosen uniformly.
  std::vector<std::vector<Index>> per_query(static_cast<std::size_t>(m));
  for (Index i = 0; i < n; ++i) {
    const auto queries = rand::sample_without_replacement(rng, m, column_weight);
    for (const Index j : queries) {
      per_query[static_cast<std::size_t>(j)].push_back(i);
    }
  }

  PoolingGraphBuilder builder(n);
  for (Index j = 0; j < m; ++j) {
    auto& agents = per_query[static_cast<std::size_t>(j)];
    if (agents.empty()) {
      // Guarantee nonempty queries so downstream code never divides by a
      // zero pool size: assign one uniform agent (negligible perturbation).
      agents.push_back(rng.uniform_index(n));
    }
    (void)builder.add_query(agents);
  }
  return builder.build();
}

PoolingGraph make_doubly_regular_graph(Index n, Index m, Index delta,
                                       rand::Rng& rng) {
  NPD_CHECK(n > 0);
  NPD_CHECK(m > 0);
  // Degenerate parameters are user-reachable through `design=` specs, so
  // they must be clean usage errors rather than contract violations.
  if (delta < 1) {
    throw std::invalid_argument("doubly regular design: need delta >= 1");
  }
  if (m > n * delta) {
    throw std::invalid_argument(
        "doubly regular design: need m <= n*delta (more pools than edge "
        "stubs would leave empty pools)");
  }

  // Every agent contributes exactly Δ stubs; the shuffled stub sequence
  // cut into consecutive pools is the configuration model.
  std::vector<Index> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(delta));
  for (Index agent = 0; agent < n; ++agent) {
    for (Index d = 0; d < delta; ++d) {
      stubs.push_back(agent);
    }
  }
  rand::shuffle(rng, stubs);

  const Index edges = n * delta;
  const Index gamma = edges / m;
  const Index extra = edges % m;
  PoolingGraphBuilder builder(n);
  builder.reserve(m, edges);
  std::size_t cursor = 0;
  for (Index j = 0; j < m; ++j) {
    const auto size =
        static_cast<std::size_t>(gamma + (j < extra ? 1 : 0));
    (void)builder.add_query(
        std::span<const Index>(stubs.data() + cursor, size));
    cursor += size;
  }
  return builder.build();
}

PoolingGraph build_design_graph(Index n, Index m, const GraphDesign& design,
                                rand::Rng& rng) {
  switch (design.family) {
    case DesignFamily::PerQuery:
      return make_pooling_graph(n, m, design.per_query, rng);
    case DesignFamily::DoublyRegular:
      return make_doubly_regular_graph(n, m, design.delta, rng);
  }
  NPD_CHECK_MSG(false, "unreachable: unknown design family");
  return {};
}

}  // namespace npd::pooling
