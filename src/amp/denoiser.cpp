#include "amp/denoiser.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace npd::amp {

namespace {

/// Numerically safe logistic function.
double sigmoid(double u) {
  if (u >= 0.0) {
    const double e = std::exp(-u);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(u);
  return e / (1.0 + e);
}

}  // namespace

EtaAndPrime Denoiser::eta_and_prime(double y, double tau2) const {
  return {eta(y, tau2), eta_prime(y, tau2)};
}

// -------------------------------------------------------- Bayes Bernoulli

BayesBernoulliDenoiser::BayesBernoulliDenoiser(double pi)
    : pi_(pi), logit_pi_(std::log(pi / (1.0 - pi))) {
  NPD_CHECK_MSG(pi > 0.0 && pi < 1.0, "prior pi must lie in (0,1)");
}

double BayesBernoulliDenoiser::eta(double y, double tau2) const {
  NPD_CHECK_MSG(tau2 > 0.0, "effective noise variance must be positive");
  return sigmoid((y - 0.5) / tau2 + logit_pi_);
}

double BayesBernoulliDenoiser::eta_prime(double y, double tau2) const {
  return eta_and_prime(y, tau2).eta_prime;
}

EtaAndPrime BayesBernoulliDenoiser::eta_and_prime(double y,
                                                  double tau2) const {
  const double e = eta(y, tau2);
  return {e, e * (1.0 - e) / tau2};
}

std::string BayesBernoulliDenoiser::name() const {
  std::ostringstream oss;
  oss << "bayes-bernoulli(pi=" << pi_ << ")";
  return oss.str();
}

// --------------------------------------------------------- Soft threshold

SoftThresholdDenoiser::SoftThresholdDenoiser(double theta) : theta_(theta) {
  NPD_CHECK_MSG(theta >= 0.0, "threshold must be nonnegative");
}

double SoftThresholdDenoiser::eta(double y, double tau2) const {
  NPD_CHECK_MSG(tau2 >= 0.0, "noise variance must be nonnegative");
  const double cut = theta_ * std::sqrt(tau2);
  if (y > cut) {
    return y - cut;
  }
  if (y < -cut) {
    return y + cut;
  }
  return 0.0;
}

double SoftThresholdDenoiser::eta_prime(double y, double tau2) const {
  const double cut = theta_ * std::sqrt(tau2);
  return std::fabs(y) > cut ? 1.0 : 0.0;
}

std::string SoftThresholdDenoiser::name() const {
  std::ostringstream oss;
  oss << "soft-threshold(theta=" << theta_ << ")";
  return oss.str();
}

std::unique_ptr<Denoiser> make_bayes_denoiser(double pi) {
  return std::make_unique<BayesBernoulliDenoiser>(pi);
}

std::unique_ptr<Denoiser> make_soft_threshold_denoiser(double theta) {
  return std::make_unique<SoftThresholdDenoiser>(theta);
}

}  // namespace npd::amp
