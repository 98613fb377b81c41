#pragma once

#include <cstdint>
#include <memory>

#include "mobility/vec2.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace eblnet::phy {

/// Domain tag mixed with the scenario seed into the base key of the keyed
/// per-pair fade streams (NakagamiFading::enable_pair_streams), so they
/// never share a seed with the run's other streams.
inline constexpr std::uint64_t kPairFadeSeedTag = 0x5F10'77D0'0004ULL;

/// Radio propagation model: received signal power as a function of
/// transmit power and distance. Implementations mirror NS-2's models.
class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Received power in watts at `distance_m` metres for `tx_power_w`
  /// watts transmitted. `distance_m` may be 0 (co-located). May draw from
  /// an Rng stream (fading/shadowing models).
  virtual double rx_power(double tx_power_w, double distance_m) const = 0;

  /// Deterministic, monotone-in-distance envelope of rx_power, used for
  /// range planning and the channel's spatial-grid culling. For
  /// deterministic models this IS rx_power; a fading model (Nakagami)
  /// returns its mean power boosted by a fade margin and never consumes
  /// the Rng stream.
  virtual double envelope_rx_power(double tx_power_w, double distance_m) const {
    return rx_power(tx_power_w, distance_m);
  }

  /// True when rx_power depends on the endpoints' positions, not just
  /// their distance (obstacle/blockage geometry). The channel then routes
  /// every pair evaluation through rx_power_between instead of rx_power.
  virtual bool position_aware() const noexcept { return false; }

  /// Position-aware received power. `distance_m` is always
  /// dist(from, to), passed so implementations need not recompute it;
  /// the default ignores the endpoints and delegates to rx_power.
  virtual double rx_power_between(double tx_power_w, mobility::Vec2 /*from*/,
                                  mobility::Vec2 /*to*/, double distance_m) const {
    return rx_power(tx_power_w, distance_m);
  }

  /// True when the model's random draws come from per-pair keyed streams
  /// (select_pair_stream) rather than one shared stream. Keyed draws are
  /// a pure function of (key, pair, transmit time), so their fades do not
  /// depend on delivery order: a grid path that culls a different
  /// candidate set than the flat loop still produces the identical fade
  /// for every pair it does evaluate.
  virtual bool pair_fade_streams() const noexcept { return false; }

  /// Rekey the stream feeding the next rx_power evaluation(s): called by
  /// the channel once per (transmitter, receiver) pair immediately before
  /// that pair's rx_power, with `now` the transmit time. No-op for models
  /// without keyed streams.
  virtual void select_pair_stream(std::uint64_t /*tx_node*/, std::uint64_t /*rx_node*/,
                                  sim::Time /*now*/) const {}

  /// Distance at which the envelope drops to `threshold_w` (bisection over
  /// the monotone envelope); used by tests, range planning and the spatial
  /// grid's cell sizing.
  double range_for_threshold(double tx_power_w, double threshold_w) const;
};

/// Friis free-space model: Pr = Pt Gt Gr lambda^2 / ((4 pi d)^2 L).
class FreeSpace : public PropagationModel {
 public:
  FreeSpace(double frequency_hz = 914e6, double gt = 1.0, double gr = 1.0, double loss = 1.0);
  double rx_power(double tx_power_w, double distance_m) const override;

  double wavelength() const noexcept { return lambda_; }

 private:
  double lambda_;
  double gt_, gr_, loss_;
};

/// Two-ray ground reflection: Friis below the crossover distance
/// dc = 4 pi ht hr / lambda, and Pr = Pt Gt Gr ht^2 hr^2 / (d^4 L)
/// beyond it — NS-2's default for vehicular/ad hoc studies.
class TwoRayGround : public PropagationModel {
 public:
  TwoRayGround(double frequency_hz = 914e6, double ht = 1.5, double hr = 1.5, double gt = 1.0,
               double gr = 1.0, double loss = 1.0);
  double rx_power(double tx_power_w, double distance_m) const override;

  double crossover_distance() const noexcept { return crossover_; }

 private:
  FreeSpace friis_;
  double ht_, hr_, gt_, gr_, loss_;
  double crossover_;
};

/// Nakagami-m fast fading on top of two-ray ground — the de facto VANET
/// channel model in later literature. Each rx_power() call draws an
/// independent gamma-distributed fade (deterministic given the Rng
/// stream): m = 1 is Rayleigh, larger m approaches the unfaded channel.
/// Fading makes reception at range edges probabilistic, which the
/// threshold model alone cannot express.
class NakagamiFading : public PropagationModel {
 public:
  /// `fade_margin` scales the deterministic envelope above the mean power
  /// (10 = +10 dB: a fade drawing more than 10x the mean is rarer than
  /// ~5e-5 even at m = 1). Only range planning / grid culling sees it.
  NakagamiFading(double m, sim::Rng& rng, double frequency_hz = 914e6, double ht = 1.5,
                 double hr = 1.5, double fade_margin = 10.0);
  double rx_power(double tx_power_w, double distance_m) const override;

  /// Mean (two-ray) power times the fade margin — never a faded draw, so
  /// culling against it is purely geometric and leaves the Rng untouched.
  double envelope_rx_power(double tx_power_w, double distance_m) const override;

  double m() const noexcept { return m_; }

  /// Switch fade draws to stateless keyed streams: each pair evaluation
  /// reseeds a scratch generator from (base_seed, tx node, rx node,
  /// transmit time), making every fade independent of evaluation and
  /// delivery order.
  void enable_pair_streams(std::uint64_t base_seed) noexcept {
    keyed_ = true;
    pair_seed_base_ = base_seed;
  }
  bool pair_fade_streams() const noexcept override { return keyed_; }
  void select_pair_stream(std::uint64_t tx_node, std::uint64_t rx_node,
                          sim::Time now) const override;

 private:
  double gamma_sample() const;

  TwoRayGround mean_model_;
  double m_;
  sim::Rng& rng_;
  double fade_margin_;
  bool keyed_{false};
  std::uint64_t pair_seed_base_{0};
  mutable sim::Rng scratch_rng_{1};
};


}  // namespace eblnet::phy
