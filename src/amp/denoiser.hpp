#pragma once

/// \file denoiser.hpp
/// The denoiser family (η_t) of the AMP iteration (Section III of the
/// paper):  σ^(t+1) = η_t(Aᵀz^(t) + σ^(t)), applied coordinate-wise.
///
/// AMP's effective observation at iteration t is y = x + τ_t·Z with
/// Z ~ N(0,1), so the Bayes-optimal denoiser for the pooled-data problem
/// is the posterior mean of a {0,1} signal with prior π = k/n:
///
///   η(y; τ²) = sigmoid( (y − 1/2)/τ² + logit(π) ),
///   η'(y; τ²) = η(1−η)/τ².
///
/// The soft-threshold denoiser (LASSO-AMP of Donoho-Maleki-Montanari
/// [19, 20]) is included for the denoiser ablation (bench abl6).

#include <memory>
#include <string>

namespace npd::amp {

/// η(y; τ²) together with η'(y; τ²).
struct EtaAndPrime {
  double eta = 0.0;
  double eta_prime = 0.0;
};

/// Scalar denoiser interface: η and its derivative w.r.t. y, both
/// parameterized by the current effective noise variance τ².
class Denoiser {
 public:
  virtual ~Denoiser() = default;

  Denoiser() = default;
  Denoiser(const Denoiser&) = delete;
  Denoiser& operator=(const Denoiser&) = delete;

  [[nodiscard]] virtual double eta(double y, double tau2) const = 0;
  [[nodiscard]] virtual double eta_prime(double y, double tau2) const = 0;
  /// Both values at once, bit-identical to calling `eta` and `eta_prime`
  /// (the AMP loops need both per coordinate).  The default does exactly
  /// that; a denoiser whose derivative reuses η overrides it.
  [[nodiscard]] virtual EtaAndPrime eta_and_prime(double y,
                                                  double tau2) const;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Bayes-optimal posterior-mean denoiser for X ~ Bernoulli(π).
class BayesBernoulliDenoiser final : public Denoiser {
 public:
  /// `pi` is the prior probability of a 1-bit (= k/n); must be in (0,1).
  explicit BayesBernoulliDenoiser(double pi);

  [[nodiscard]] double eta(double y, double tau2) const override;
  [[nodiscard]] double eta_prime(double y, double tau2) const override;
  /// One `exp`: η' = η(1−η)/τ² from the η just computed.
  [[nodiscard]] EtaAndPrime eta_and_prime(double y,
                                          double tau2) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double pi() const { return pi_; }

 private:
  double pi_;
  double logit_pi_;
};

/// Soft-threshold denoiser η(y) = sign(y)·(|y| − θ·τ)₊ with threshold
/// parameter θ (in units of the noise standard deviation).
class SoftThresholdDenoiser final : public Denoiser {
 public:
  explicit SoftThresholdDenoiser(double theta);

  [[nodiscard]] double eta(double y, double tau2) const override;
  [[nodiscard]] double eta_prime(double y, double tau2) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double theta() const { return theta_; }

 private:
  double theta_;
};

[[nodiscard]] std::unique_ptr<Denoiser> make_bayes_denoiser(double pi);
[[nodiscard]] std::unique_ptr<Denoiser> make_soft_threshold_denoiser(
    double theta);

}  // namespace npd::amp
