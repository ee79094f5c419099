// Micro-benchmarks (google-benchmark) of the hot kernels: raw random
// draws, query sampling, pooling-graph construction, incremental score
// updates, top-k selection, sorting-network generation/application, the
// dense products and one AMP iteration, channel measurement, and the
// end-to-end required-queries protocol at small n.

#include <benchmark/benchmark.h>

#include <vector>

#include "amp/amp.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "core/scores.hpp"
#include "harness/required_queries.hpp"
#include "linalg/dense.hpp"
#include "netsim/sorting_network.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "rand/distributions.hpp"
#include "rand/rng.hpp"

namespace {

using namespace npd;

// Raw 64-bit draws: the engine's per-call cost, refills amortized.
void BM_RngDraw(benchmark::State& state) {
  rand::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngDraw);

// One bounded draw per sampled agent: the primitive behind every
// with-replacement query (arg: population n; 1000 agents per iteration).
void BM_SampleWithReplacement(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  constexpr Index kAgents = 1000;
  rand::Rng rng(1);
  std::vector<Index> out;
  out.reserve(kAgents);
  for (auto _ : state) {
    out.clear();
    rand::sample_with_replacement(rng, n, kAgents, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kAgents);
}
BENCHMARK(BM_SampleWithReplacement)->Arg(1000)->Arg(100000);

void BM_SampleQuery(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  rand::Rng rng(1);
  const pooling::QueryDesign design = pooling::paper_design(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pooling::sample_query(design, n, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          design.gamma);
}
BENCHMARK(BM_SampleQuery)->Arg(1000)->Arg(10000);

// Whole-graph construction with replacement: args are (n, m, Γ).  The
// dense row is the paper's design (Γ = n/2) at fig6's largest m; the
// sparse row (Γ = 8 ≪ n = 100000) costs O(m·Γ) edges, so any O(n) work
// per query (a full tally or bitmap scan) would dominate it.
void BM_MakePoolingGraph(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const auto m = static_cast<Index>(state.range(1));
  const pooling::QueryDesign design{.gamma = static_cast<Index>(state.range(2)),
                                    .mode = pooling::SamplingMode::WithReplacement};
  rand::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pooling::make_pooling_graph(n, m, design, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m *
                          design.gamma);
}
BENCHMARK(BM_MakePoolingGraph)
    ->Args({1000, 600, 500})
    ->Args({100000, 2000, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_ScoreStateApplyQuery(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  rand::Rng rng(2);
  const pooling::QueryDesign design = pooling::paper_design(n);
  core::ScoreState scores(n, pooling::sublinear_k(n, 0.25));
  const auto query = pooling::sample_query(design, n, rng);
  for (auto _ : state) {
    scores.apply_query(query, 42.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          design.gamma);
}
BENCHMARK(BM_ScoreStateApplyQuery)->Arg(1000)->Arg(10000);

void BM_SelectTopK(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  rand::Rng rng(3);
  std::vector<double> scores(static_cast<std::size_t>(n));
  for (auto& s : scores) {
    s = rng.uniform_real();
  }
  const Index k = pooling::sublinear_k(n, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_top_k(scores, k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SelectTopK)->Arg(1000)->Arg(100000);

void BM_OddEvenScheduleGeneration(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::make_odd_even_schedule(n));
  }
}
BENCHMARK(BM_OddEvenScheduleGeneration)->Arg(1024)->Arg(16384);

void BM_SortingNetworkApply(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const netsim::SortingSchedule schedule = netsim::make_odd_even_schedule(n);
  rand::Rng rng(4);
  std::vector<double> base(static_cast<std::size_t>(n));
  for (auto& v : base) {
    v = rng.uniform_real();
  }
  for (auto _ : state) {
    std::vector<double> values = base;
    netsim::apply_schedule(schedule, values);
    benchmark::DoNotOptimize(values);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          schedule.comparator_count());
}
BENCHMARK(BM_SortingNetworkApply)->Arg(1024)->Arg(8192);

void BM_DenseMatvec(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const Index m = n / 2;
  rand::Rng rng(5);
  const pooling::PoolingGraph graph =
      pooling::make_pooling_graph(n, m, pooling::paper_design(n), rng);
  const linalg::DenseMatrix a = linalg::counting_matrix(graph);
  std::vector<double> x(static_cast<std::size_t>(n), 0.5);
  std::vector<double> y(static_cast<std::size_t>(m));
  for (auto _ : state) {
    a.matvec(x, y);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          m);
}
BENCHMARK(BM_DenseMatvec)->Arg(500)->Arg(1000);

// Aᵀ·z, the other half of an AMP iteration, on the same matrices.  One
// weight in eight is zero, so the skipped rows are part of the timing.
void BM_DenseMatvecTranspose(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const Index m = n / 2;
  rand::Rng rng(5);
  const pooling::PoolingGraph graph =
      pooling::make_pooling_graph(n, m, pooling::paper_design(n), rng);
  const linalg::DenseMatrix a = linalg::counting_matrix(graph);
  std::vector<double> z(static_cast<std::size_t>(m));
  for (std::size_t j = 0; j < z.size(); ++j) {
    z[j] = j % 8 == 0 ? 0.0 : rng.uniform_real() - 0.5;
  }
  std::vector<double> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    a.matvec_transpose(z, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          m);
}
BENCHMARK(BM_DenseMatvecTranspose)->Arg(500)->Arg(1000);

void BM_ChannelMeasureBitFlip(benchmark::State& state) {
  const Index n = 1000;
  rand::Rng rng(6);
  const pooling::GroundTruth truth = pooling::make_ground_truth(n, 6, rng);
  const auto query = pooling::sample_query(pooling::paper_design(n), n, rng);
  const noise::BitFlipChannel channel(0.1, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.measure(query, truth.bits, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(query.size()));
}
BENCHMARK(BM_ChannelMeasureBitFlip);

void BM_ChannelMeasureGaussian(benchmark::State& state) {
  const Index n = 1000;
  rand::Rng rng(7);
  const pooling::GroundTruth truth = pooling::make_ground_truth(n, 6, rng);
  const auto query = pooling::sample_query(pooling::paper_design(n), n, rng);
  const noise::GaussianQueryChannel channel(2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.measure(query, truth.bits, rng));
  }
}
BENCHMARK(BM_ChannelMeasureGaussian);

void BM_RequiredQueriesProtocol(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const Index k = pooling::sublinear_k(n, 0.25);
  const auto channel = noise::make_z_channel(0.1);
  std::uint64_t rep = 0;
  for (auto _ : state) {
    rand::Rng rng(1000 + rep++);
    benchmark::DoNotOptimize(harness::required_queries(
        n, k, pooling::paper_design(n), *channel, rng));
  }
}
BENCHMARK(BM_RequiredQueriesProtocol)->Arg(300)->Arg(1000);

// One AMP iteration (both dense products plus the denoiser): args are
// (n, m, Δ).  Δ = 0 is the paper design (Γ = n/2); Δ > 0 the doubly
// regular design, here at the n and m of atlas_regular's largest cells.
void BM_AmpIteration(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const auto m = static_cast<Index>(state.range(1));
  const auto delta = static_cast<Index>(state.range(2));
  const Index k = pooling::sublinear_k(n, 0.25);
  rand::Rng rng(8);
  const noise::BitFlipChannel channel(0.1, 0.0);
  pooling::GraphDesign design;
  design.per_query = pooling::paper_design(n);
  if (delta > 0) {
    design.family = pooling::DesignFamily::DoublyRegular;
    design.delta = delta;
  }
  const core::Instance instance =
      core::make_instance(n, k, m, design, channel, rng);
  const Index gamma = instance.graph.num_edges() / m;
  const amp::AmpProblem problem =
      amp::standardize(instance, channel.linearization(n, k, gamma));
  const amp::BayesBernoulliDenoiser denoiser(problem.pi);
  amp::AmpOptions options;
  options.max_iterations = 1;
  options.convergence_tol = 0.0;  // force exactly one iteration
  for (auto _ : state) {
    benchmark::DoNotOptimize(amp::run_amp(problem, denoiser, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * m);
}
BENCHMARK(BM_AmpIteration)
    ->Args({1000, 300, 0})
    ->Args({4000, 400, 6})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
