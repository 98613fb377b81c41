#pragma once

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>

namespace eblnet::mobility {

/// Intelligent Driver Model parameters (Treiber/Hennecke/Helbing 2000).
/// Defaults are the canonical highway calibration from the paper's
/// related car-following literature: free speed 33 m/s (~120 km/h),
/// 1.5 s time headway, comfortable braking 2 m/s².
struct IdmParams {
  double desired_speed_mps{33.0};   ///< v0 — free-road target speed
  double time_headway_s{1.5};       ///< T — desired bumper-to-bumper headway
  double max_accel_mps2{1.4};       ///< a — maximum acceleration
  double comfort_decel_mps2{2.0};   ///< b — comfortable deceleration
  double min_gap_m{2.0};            ///< s0 — standstill jam gap
  double vehicle_length_m{5.0};     ///< L — bumper-to-bumper geometry
  double accel_exponent{4.0};       ///< delta — free-acceleration exponent
};

// pow4's split and error terms assume every operation rounds to double.
static_assert(FLT_EVAL_METHOD == 0, "pow4 needs double-precision evaluation");

/// x⁴, bit for bit the double `std::pow(x, 4.0)` returns, without
/// calling libm on ~90 % of inputs. x² = p + e and p² = h4 + l4 are
/// exact double-double products (Veltkamp split, Dekker product), so
/// h4 + (l4 + 2pe) is within ~2⁻⁵¹ ulp of the exact x⁴ (e² is below
/// that). Fast2Sum rounds it once to s with an exact residual r. When
/// |r| <= 0.45 ulp(s), the exact x⁴ lies at least 0.05 ulp from both
/// rounding midpoints around s, so any pow with error below 0.55 ulp
/// returns s; glibc's `pow` source states a worst case of 0.52–0.54
/// ulp. Inside that 0.05 ulp band (about 10 % of inputs), at a power
/// of two (the ulp below is half the ulp above), and for results near
/// the subnormal range, huge, infinite or NaN, it returns
/// `std::pow(x, 4.0)` itself.
///
/// The split also needs each a*b + c rounded twice: a build that lets
/// the compiler contract it into an FMA (-mfma with GCC's default
/// -ffp-contract=fast) breaks the split. IdmLaw.Pow4MatchesLibmBitForBit
/// checks the whole contract.
inline double pow4(double x) {
  constexpr double kSplit = 0x1p27 + 1.0;  // 53-bit mantissa -> 26 + 27 bits
  const double xc = kSplit * x;
  const double xh = xc - (xc - x);
  const double xl = x - xh;
  const double p = x * x;
  const double e = ((xh * xh - p) + 2.0 * xh * xl) + xl * xl;
  const double pc = kSplit * p;
  const double ph = pc - (pc - p);
  const double pl = p - ph;
  const double h4 = p * p;
  const double l4 = ((ph * ph - h4) + 2.0 * ph * pl) + pl * pl;
  const double t = l4 + 2.0 * p * e;
  const double s = h4 + t;
  const double r = t - (s - h4);
  const auto bits = std::bit_cast<std::uint64_t>(s);
  const double exponent_scale = std::bit_cast<double>(bits & 0x7FF0'0000'0000'0000ULL);
  if ((bits & 0x000F'FFFF'FFFF'FFFFULL) != 0 && s >= 0x1p-900 && s <= 0x1p1000 &&
      std::abs(r) <= 0.45 * 0x1p-52 * exponent_scale)
    return s;
  return std::pow(x, 4.0);
}

/// The free-road term x^δ with x = v/v0. δ = 4, the default, goes
/// through `pow4`; any other exponent through `std::pow`.
inline double idm_free_term(double x, double delta) {
  return delta == 4.0 ? pow4(x) : std::pow(x, delta);
}

/// 2√(ab), the divisor of s*'s braking term. It depends on the
/// calibration only, so a caller evaluating many vehicles computes it
/// once.
inline double idm_brake_scale(const IdmParams& p) {
  return 2.0 * std::sqrt(p.max_accel_mps2 * p.comfort_decel_mps2);
}

/// Desired dynamic gap s*(v, Δv) = s0 + vT + vΔv / (2√(ab)) for a driver
/// with headway `headway_s`, and `brake_scale` = idm_brake_scale(p);
/// floored at s0 (the dynamic term can go negative when closing speed
/// Δv < 0).
inline double idm_desired_gap(const IdmParams& p, double headway_s, double brake_scale, double v,
                              double dv) {
  const double dynamic = v * headway_s + v * dv / brake_scale;
  return p.min_gap_m + std::max(0.0, dynamic);
}

/// s*(v, Δv) with the calibration's own headway.
inline double idm_desired_gap(const IdmParams& p, double v, double dv) {
  return idm_desired_gap(p, p.time_headway_s, idm_brake_scale(p), v, dv);
}

/// IDM acceleration a·[1 − (v/v0)^δ − (s*/s)²] for a driver with desired
/// speed `v0` and headway `headway_s` (speed jitter and warning policies
/// move them off the calibration's), `brake_scale` = idm_brake_scale(p),
/// bumper-to-bumper gap `gap` to the leader and closing speed `dv` =
/// v − v_leader. Pass a huge gap (e.g. 1e9) for free road; the
/// interaction term vanishes. `gap` is clamped to a small positive
/// epsilon so an (unphysical) overlap yields a large finite braking
/// demand instead of inf/NaN.
inline double idm_acceleration(const IdmParams& p, double v0, double headway_s,
                               double brake_scale, double v, double gap, double dv) {
  const double free = idm_free_term(v / v0, p.accel_exponent);
  const double s_star = idm_desired_gap(p, headway_s, brake_scale, v, dv);
  const double ratio = s_star / std::max(gap, 0.01);
  return p.max_accel_mps2 * (1.0 - free - ratio * ratio);
}

/// The law with the calibration's own desired speed and headway.
inline double idm_acceleration(const IdmParams& p, double v, double gap, double dv) {
  return idm_acceleration(p, p.desired_speed_mps, p.time_headway_s, idm_brake_scale(p), v, gap,
                          dv);
}

/// Equilibrium (zero-acceleration, zero-closing-speed) gap at speed v:
/// the fixed point s_e(v) = (s0 + vT) / sqrt(1 − (v/v0)^δ). Diverges as
/// v → v0 — a platoon cruising at the free speed has no finite
/// equilibrium spacing.
inline double idm_equilibrium_gap(const IdmParams& p, double v) {
  const double free = idm_free_term(v / p.desired_speed_mps, p.accel_exponent);
  return (p.min_gap_m + v * p.time_headway_s) / std::sqrt(1.0 - free);
}

}  // namespace eblnet::mobility
