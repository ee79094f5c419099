#include "netsim/distributed_amp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "netsim/distributed_topk.hpp"
#include "util/assert.hpp"

namespace npd::netsim {

namespace {

/// Public constants every node knows (model parameters + standardization).
struct SharedKnowledge {
  Index n = 0;
  Index m = 0;
  double mean_entry = 0.0;  // Γ/n
  double inv_scale = 0.0;   // 1/s with s = √(m·v)
  double tau2_floor = 0.0;
  const amp::Denoiser* denoiser = nullptr;
  Index iterations = 0;
};

/// Agent i: holds x_i and its own sampling multiplicities (it knows which
/// queries measured it and how often — local knowledge).
class AmpAgentNode final : public Node {
 public:
  AmpAgentNode(Index self, const SharedKnowledge* shared,
               std::vector<double> my_counts)
      : self_(self), shared_(shared), my_counts_(std::move(my_counts)) {}

  void on_round(Index round, std::span<const Message> received,
                NetworkContext& ctx) override {
    // Agent rounds are the odd rounds: 1, 3, ..., 2T-1.
    if (round % 2 != 1 || round > 2 * shared_->iterations - 1) {
      return;
    }
    NPD_ASSERT(static_cast<Index>(received.size()) == shared_->m);

    // Reconstruct tau² and the pseudo-data r_i = Σ_j B_ji z_j + x_i,
    // accumulating in ascending query order to match the centralized
    // matvec_transpose exactly.
    double z_norm_sq = 0.0;
    double pseudo = 0.0;
    for (std::size_t j = 0; j < received.size(); ++j) {
      const double z_j = received[j].a;
      z_norm_sq += z_j * z_j;
      if (z_j == 0.0) {
        continue;  // centralized matvec_transpose skips zero weights
      }
      const double b_ji =
          (my_counts_[j] - shared_->mean_entry) * shared_->inv_scale;
      pseudo += z_j * b_ji;
    }
    pseudo += x_;
    const double tau2 =
        std::max(z_norm_sq / static_cast<double>(shared_->m),
                 shared_->tau2_floor);

    const amp::EtaAndPrime d = shared_->denoiser->eta_and_prime(pseudo, tau2);
    x_ = d.eta;

    // Send (x_i, η'_i) back to every query node unless this was the last
    // iteration (the queries' final residual update is never consumed).
    const bool last_iteration = round == 2 * shared_->iterations - 1;
    if (!last_iteration) {
      for (Index j = 0; j < shared_->m; ++j) {
        ctx.send(self_, shared_->n + j, Tag::User, x_, d.eta_prime);
      }
    }
  }

  [[nodiscard]] double x() const { return x_; }

 private:
  Index self_;
  const SharedKnowledge* shared_;
  std::vector<double> my_counts_;  // A_ji for all j (dense, own column)
  double x_ = 0.0;
};

/// Query node j: holds y_j, z_j and its own sampled multiset (its row of
/// the counting matrix — local knowledge).
class AmpQueryNode final : public Node {
 public:
  AmpQueryNode(Index network_id, Index query_id,
               const SharedKnowledge* shared, double y,
               std::vector<double> row_counts)
      : network_id_(network_id),
        query_id_(query_id),
        shared_(shared),
        y_(y),
        z_(y),
        row_counts_(std::move(row_counts)) {}

  void on_round(Index round, std::span<const Message> received,
                NetworkContext& ctx) override {
    // Query rounds are the even rounds 0, 2, ..., 2(T-1).
    if (round % 2 != 0 || round > 2 * (shared_->iterations - 1)) {
      return;
    }
    if (round > 0) {
      // Update the residual with the Onsager term:
      //   z = y − Σ_i B_ji·x_i + z_old·(Σ_i η'_i)/m,
      // both sums in ascending agent order (= matvec row loop).
      NPD_ASSERT(static_cast<Index>(received.size()) == shared_->n);
      double ax = 0.0;
      double eta_prime_sum = 0.0;
      for (std::size_t i = 0; i < received.size(); ++i) {
        const double b_ji =
            (row_counts_[i] - shared_->mean_entry) * shared_->inv_scale;
        ax += b_ji * received[i].a;
        eta_prime_sum += received[i].b;
      }
      const double onsager = eta_prime_sum / static_cast<double>(shared_->m);
      z_ = y_ - ax + z_ * onsager;
    }
    for (Index i = 0; i < shared_->n; ++i) {
      ctx.send(network_id_, i, Tag::User, z_);
    }
  }

 private:
  Index network_id_;
  Index query_id_;
  const SharedKnowledge* shared_;
  double y_;
  double z_;
  std::vector<double> row_counts_;  // A_ji for all i (dense, own row)
};

}  // namespace

DistributedAmpResult run_distributed_amp(const core::Instance& instance,
                                         const amp::AmpProblem& problem,
                                         const amp::Denoiser& denoiser,
                                         Index iterations) {
  NPD_CHECK_MSG(iterations >= 1, "need at least one AMP iteration");
  const Index n = problem.n;
  const Index m = problem.m;
  NPD_CHECK(instance.n() == n && instance.m() == m);

  // Reconstruct the standardization constants the same way
  // amp::standardize does.
  const double gamma =
      static_cast<double>(instance.graph.query_multiset(0).size());
  const double mean_entry = gamma / static_cast<double>(n);
  const double entry_var = mean_entry * (1.0 - 1.0 / static_cast<double>(n));
  const double s = std::sqrt(static_cast<double>(m) * entry_var);

  SharedKnowledge shared;
  shared.n = n;
  shared.m = m;
  shared.mean_entry = mean_entry;
  shared.inv_scale = 1.0 / s;
  shared.tau2_floor = std::max(problem.effective_noise_var, 1e-12);
  shared.denoiser = &denoiser;
  shared.iterations = iterations;

  // Each query's row and, scattered from the same walk, each agent's
  // column of the counting matrix A.
  const auto n_size = static_cast<std::size_t>(n);
  const auto m_size = static_cast<std::size_t>(m);
  std::vector<std::vector<double>> rows(m_size,
                                        std::vector<double>(n_size, 0.0));
  std::vector<std::vector<double>> columns(n_size,
                                           std::vector<double>(m_size, 0.0));
  for (Index j = 0; j < m; ++j) {
    auto& row = rows[static_cast<std::size_t>(j)];
    const auto distinct = instance.graph.query_distinct(j);
    const auto counts = instance.graph.query_multiplicity(j);
    for (std::size_t idx = 0; idx < distinct.size(); ++idx) {
      const auto i = static_cast<std::size_t>(distinct[idx]);
      const auto count = static_cast<double>(counts[idx]);
      row[i] = count;
      columns[i][static_cast<std::size_t>(j)] = count;
    }
  }

  Network network;
  std::vector<AmpAgentNode*> agents;
  agents.reserve(n_size);
  for (Index i = 0; i < n; ++i) {
    auto agent = std::make_unique<AmpAgentNode>(
        i, &shared, std::move(columns[static_cast<std::size_t>(i)]));
    agents.push_back(agent.get());
    (void)network.add_node(std::move(agent));
  }
  for (Index j = 0; j < m; ++j) {
    (void)network.add_node(std::make_unique<AmpQueryNode>(
        n + j, j, &shared, problem.y[static_cast<std::size_t>(j)],
        std::move(rows[static_cast<std::size_t>(j)])));
  }

  // Rounds 0..2T-1: T query rounds interleaved with T agent rounds.
  network.run_rounds(2 * iterations);
  NPD_CHECK_MSG(network.pending_messages() == 0,
                "AMP protocol must end quiescent");

  DistributedAmpResult result;
  result.iterations = iterations;
  result.iteration_stats = network.stats();
  result.x.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    result.x[static_cast<std::size_t>(i)] =
        agents[static_cast<std::size_t>(i)]->x();
  }

  const DistributedTopKResult topk =
      run_distributed_topk(result.x, problem.k);
  result.topk_stats = topk.stats;
  result.estimate = topk.estimate;
  return result;
}

}  // namespace npd::netsim
