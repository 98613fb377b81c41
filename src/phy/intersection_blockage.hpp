#pragma once

#include <memory>

#include "phy/propagation.hpp"

namespace eblnet::phy {

/// Corner-building blockage at a four-way intersection.
struct IntersectionBlockageParams {
  /// Centre of the crossing.
  mobility::Vec2 center{0.0, 0.0};
  /// Half-width of each road corridor (building faces sit this far from
  /// the road axis).
  double half_width_m{10.0};
  /// Extra attenuation applied to around-the-corner (NLOS) paths.
  double corner_loss_db{10.0};
};

/// Urban-intersection NLOS decorator over any propagation model, after
/// the analytical intersection packet-reception model of Steinmetz et al.
/// (PAPERS.md): two perpendicular road corridors meet at `center`, and
/// corner buildings occupy the four quadrants outside them.
///
/// A pair is line-of-sight when both endpoints share a corridor, or when
/// either stands inside the crossing core (from where both roads are
/// visible); such pairs see the inner model unchanged. Any other pair is
/// blocked by a corner building and its signal is modelled as diffracting
/// around the corner: the effective path length becomes the
/// around-the-corner distance d_t + d_r (transmitter->centre +
/// centre->receiver), attenuated by a further `corner_loss_db` — the
/// shape (inverse-power decay in d_t·d_r, discontinuous drop past the
/// corner) that the analytical model's NLOS arm exhibits.
///
/// The culling contract is preserved: envelope_rx_power forwards to the
/// inner (LOS) envelope, which upper-bounds both arms — the corner gain
/// is <= 1 and d_t + d_r >= d with a monotone inner envelope — and stays
/// deterministic, so spatial-grid culls are unchanged. Both arms evaluate
/// the inner model exactly once per pair, so stochastic inner models
/// (Nakagami) consume one fade draw per pair in either arm, keeping
/// LOS/NLOS classification from perturbing the shared RNG stream's
/// alignment. Pair-keyed fade streams forward through unchanged.
class IntersectionBlockage : public PropagationModel {
 public:
  IntersectionBlockage(std::shared_ptr<PropagationModel> inner,
                       IntersectionBlockageParams params = {});

  /// Positions unknown: assume line of sight (range planning and the
  /// conservative grid radius both want the optimistic arm).
  double rx_power(double tx_power_w, double distance_m) const override {
    return inner_->rx_power(tx_power_w, distance_m);
  }

  bool position_aware() const noexcept override { return true; }
  double rx_power_between(double tx_power_w, mobility::Vec2 from, mobility::Vec2 to,
                          double distance_m) const override;

  double envelope_rx_power(double tx_power_w, double distance_m) const override {
    return inner_->envelope_rx_power(tx_power_w, distance_m);
  }

  bool pair_fade_streams() const noexcept override { return inner_->pair_fade_streams(); }
  void select_pair_stream(std::uint64_t tx_node, std::uint64_t rx_node,
                          sim::Time now) const override {
    inner_->select_pair_stream(tx_node, rx_node, now);
  }

  /// Is the (from, to) path line-of-sight under the corner geometry?
  bool line_of_sight(mobility::Vec2 from, mobility::Vec2 to) const noexcept;

  const IntersectionBlockageParams& params() const noexcept { return params_; }
  const PropagationModel& inner() const noexcept { return *inner_; }

 private:
  std::shared_ptr<PropagationModel> inner_;
  IntersectionBlockageParams params_;
  double corner_gain_;
};

}  // namespace eblnet::phy
