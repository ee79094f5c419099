#pragma once

/// \file pooling_graph.hpp
/// The random bipartite pooling **multigraph** G (Section II, Figure 1).
///
/// One side holds the `n` agents, the other the `m` query nodes.  An edge
/// means "agent x is measured by query a"; because agents are sampled with
/// replacement, parallel edges occur and matter: the noisy channel flips
/// every *edge* independently, and an agent's own bit enters its
/// neighborhood sum Δ_i times (its edge multiplicity) but each query result
/// is forwarded to the agent only once (distinct neighborhoods Δ*_i).
///
/// The graph stores only its query side, CSR-style: per query the sampled
/// multiset (Γ entries) plus the deduplicated (distinct agent,
/// multiplicity) list.  The agent-side quantities of Lemmas 3 and 4 — the
/// degrees Δ_i (with multiplicity) and Δ*_i (distinct) — are what each
/// agent accumulates from the results it receives, so they are counted
/// from this query side by `core::ScoreState`, not stored here.

#include <cstdint>
#include <span>
#include <vector>

#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "util/types.hpp"

namespace npd::pooling {

class PoolingGraphBuilder;

/// Immutable bipartite multigraph between agents and queries.
class PoolingGraph {
 public:
  /// Default state: empty graph with zero agents (placeholder before a
  /// builder-produced graph is moved in).
  PoolingGraph() = default;

  [[nodiscard]] Index num_agents() const { return n_; }
  [[nodiscard]] Index num_queries() const {
    return static_cast<Index>(query_offsets_.size()) - 1;
  }
  /// Total number of edges counted with multiplicity (= Σ_j |∂a_j| = m·Γ
  /// for the paper's fixed-size design).
  [[nodiscard]] Index num_edges() const {
    return static_cast<Index>(query_agents_.size());
  }

  /// The sampled multiset ∂a_j of query `j` (length Γ_j, duplicates
  /// possible, in sampling order).
  [[nodiscard]] std::span<const Index> query_multiset(Index j) const;

  /// Distinct agents ∂*a_j of query `j`, sorted ascending.
  [[nodiscard]] std::span<const Index> query_distinct(Index j) const;

  /// Multiplicities parallel to `query_distinct(j)`.
  [[nodiscard]] std::span<const Index> query_multiplicity(Index j) const;

 private:
  friend class PoolingGraphBuilder;

  Index n_ = 0;
  // Query -> sampled multiset (CSR).
  std::vector<Index> query_offsets_{0};
  std::vector<Index> query_agents_;
  // Query -> (distinct agent, multiplicity) (CSR).
  std::vector<Index> distinct_offsets_{0};
  std::vector<Index> distinct_agents_;
  std::vector<Index> distinct_counts_;
};

/// Incremental builder: queries are added one at a time — exactly the
/// paper's measurement protocol ("we simulate one query node after the
/// other in a sequential manner").
///
/// Each query's multiset is deduplicated by a census rather than a sort:
/// one pass over its Γ edges bumps an n-sized tally and sets a bit in an
/// ⌈n/64⌉-word "seen" bitmap, remembering each word the first time it
/// turns non-zero; the w touched words are then sorted and walked with
/// `countr_zero`, emitting distinct agents in ascending order and zeroing
/// the tally and the bits behind them.  A query costs O(Γ + w log w) with
/// w ≤ min(Γ, ⌈n/64⌉) — no O(n) term, so sparse designs (Γ ≪ n) stay
/// cheap — and the scratch is all-zero again between queries.
class PoolingGraphBuilder {
 public:
  explicit PoolingGraphBuilder(Index n);

  /// Reserve room for `queries` more queries holding `edges` more edges
  /// (with multiplicity), so the CSR arrays never reallocate.
  void reserve(Index queries, Index edges);

  /// Append one query given its sampled multiset; returns the query id.
  /// Strong guarantee: an empty query or an agent outside [0, n) throws
  /// `ContractViolation` before the builder changes.
  Index add_query(std::span<const Index> sampled_agents);

  /// Sample one query using `design` straight into the edge array and
  /// append it; returns the query id.  Same draws as `sample_query`.
  Index add_random_query(const QueryDesign& design, rand::Rng& rng);

  [[nodiscard]] Index num_queries_so_far() const;

  /// Hand the queries added so far over as an immutable graph.  The
  /// builder is left empty afterwards.
  [[nodiscard]] PoolingGraph build();

 private:
  /// Census-dedup the already appended, range-checked edges
  /// `query_agents_[begin, end)` into the distinct CSR and close the
  /// query.  Returns its id.
  Index close_query(std::size_t begin);

  Index n_;
  PoolingGraph graph_;
  // Census scratch, all-zero between queries: per-agent multiplicity,
  // "seen" bitmap (bit i of word i/64), and the words set by this query.
  std::vector<Index> tally_;
  std::vector<std::uint64_t> seen_;
  std::vector<std::size_t> touched_;
};

/// Convenience: the full random graph of the paper's model — `m` queries,
/// each drawn by `design`.
[[nodiscard]] PoolingGraph make_pooling_graph(Index n, Index m,
                                              const QueryDesign& design,
                                              rand::Rng& rng);

/// Ablation design: a constant-column-weight graph where every *agent*
/// joins exactly `column_weight` distinct queries chosen uniformly
/// (near-constant tests-per-item designs, cf. [4, 33] in the paper).
[[nodiscard]] PoolingGraph make_constant_column_weight_graph(Index n, Index m,
                                                             Index column_weight,
                                                             rand::Rng& rng);

/// Doubly regular configuration model (Hahn-Klimroth–Kaaser–Rau):
/// every agent has degree exactly `delta` (counted with multiplicity)
/// and the n·Δ edge stubs are dealt to the m pools as evenly as
/// possible — exactly Γ = n·Δ/m agents per pool when m divides n·Δ,
/// otherwise the first (n·Δ mod m) pools hold one extra agent.  The
/// construction is the classic edge shuffle: lay out every agent's Δ
/// stubs, Fisher–Yates-shuffle them with `rng`, and cut the sequence
/// into consecutive pools — a pure function of (n, m, delta, rng
/// stream), so fixed seeds reproduce the graph bit-for-bit.  Parallel
/// edges (an agent twice in one pool) are possible and carry the usual
/// multigraph semantics.  Throws `std::invalid_argument` for delta < 1
/// or m > n·delta (some pools would be empty).
[[nodiscard]] PoolingGraph make_doubly_regular_graph(Index n, Index m,
                                                     Index delta,
                                                     rand::Rng& rng);

/// Build the whole pooling graph for any `GraphDesign` family: per-query
/// designs delegate to `make_pooling_graph` (identical RNG stream), the
/// doubly regular family to `make_doubly_regular_graph`.
[[nodiscard]] PoolingGraph build_design_graph(Index n, Index m,
                                              const GraphDesign& design,
                                              rand::Rng& rng);

}  // namespace npd::pooling
