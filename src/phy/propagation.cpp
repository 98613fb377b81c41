#include "phy/propagation.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace eblnet::phy {
namespace {
constexpr double kSpeedOfLight = 299'792'458.0;
}

double PropagationModel::range_for_threshold(double tx_power_w, double threshold_w) const {
  double lo = 0.1, hi = 1.0;
  while (envelope_rx_power(tx_power_w, hi) > threshold_w && hi < 1e7) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (envelope_rx_power(tx_power_w, mid) > threshold_w) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

FreeSpace::FreeSpace(double frequency_hz, double gt, double gr, double loss)
    : lambda_{kSpeedOfLight / frequency_hz}, gt_{gt}, gr_{gr}, loss_{loss} {
  if (frequency_hz <= 0.0) throw std::invalid_argument{"FreeSpace: frequency must be > 0"};
}

double FreeSpace::rx_power(double tx_power_w, double distance_m) const {
  if (distance_m <= 0.0) return tx_power_w;
  const double denom = 4.0 * std::numbers::pi * distance_m / lambda_;
  return tx_power_w * gt_ * gr_ / (denom * denom * loss_);
}

TwoRayGround::TwoRayGround(double frequency_hz, double ht, double hr, double gt, double gr,
                           double loss)
    : friis_{frequency_hz, gt, gr, loss}, ht_{ht}, hr_{hr}, gt_{gt}, gr_{gr}, loss_{loss} {
  crossover_ = 4.0 * std::numbers::pi * ht_ * hr_ / friis_.wavelength();
}

double TwoRayGround::rx_power(double tx_power_w, double distance_m) const {
  if (distance_m <= crossover_) return friis_.rx_power(tx_power_w, distance_m);
  const double d2 = distance_m * distance_m;
  return tx_power_w * gt_ * gr_ * ht_ * ht_ * hr_ * hr_ / (d2 * d2 * loss_);
}

NakagamiFading::NakagamiFading(double m, sim::Rng& rng, double frequency_hz, double ht,
                               double hr, double fade_margin)
    : mean_model_{frequency_hz, ht, hr}, m_{m}, rng_{rng}, fade_margin_{fade_margin} {
  if (m < 0.5) throw std::invalid_argument{"NakagamiFading: m must be >= 0.5"};
  if (fade_margin < 1.0) throw std::invalid_argument{"NakagamiFading: fade margin must be >= 1"};
}

void NakagamiFading::select_pair_stream(std::uint64_t tx_node, std::uint64_t rx_node,
                                        sim::Time now) const {
  // Chained splitmix avalanche over the full key; reseed also clears the
  // polar-method spare, so the draw sequence is a pure function of the key.
  const std::uint64_t k1 = sim::mix_seed(pair_seed_base_, tx_node);
  const std::uint64_t k2 = sim::mix_seed(k1, rx_node);
  scratch_rng_.reseed(sim::mix_seed(k2, static_cast<std::uint64_t>(now.ns())));
}

double NakagamiFading::gamma_sample() const {
  sim::Rng& rng = keyed_ ? scratch_rng_ : rng_;
  // Marsaglia-Tsang for shape m >= 1; shape-boost trick below 1.
  double shape = m_;
  double boost = 1.0;
  if (shape < 1.0) {
    boost = std::pow(rng.uniform(), 1.0 / shape);
    shape += 1.0;
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = rng.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return boost * d * v;
  }
}

double NakagamiFading::rx_power(double tx_power_w, double distance_m) const {
  const double mean = mean_model_.rx_power(tx_power_w, distance_m);
  // Gamma(shape=m, scale=mean/m) has mean `mean`.
  return gamma_sample() * mean / m_;
}

double NakagamiFading::envelope_rx_power(double tx_power_w, double distance_m) const {
  return fade_margin_ * mean_model_.rx_power(tx_power_w, distance_m);
}

}  // namespace eblnet::phy
