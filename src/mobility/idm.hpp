#pragma once

#include <algorithm>
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

/// Lane vectors (GCC/Clang vector extensions): the operand types of the
/// lane-generic law `idm_accelerationv`. Arithmetic on them is per-lane
/// IEEE double arithmetic, so each lane rounds exactly as the scalar
/// code does. Lanes2 is two doubles in 16 bytes, SSE2 on x86-64 with no
/// compile flag. Lanes4 is four doubles in 32 bytes: in a function built
/// for AVX2 they are ymm registers; elsewhere GCC lowers each operation
/// to SSE2 pairs, so use it only under `[[gnu::target("avx2")]]`, with
/// every helper inlined, so that no Lanes4 crosses a call.
typedef double Lanes2 __attribute__((vector_size(16)));
typedef double Lanes4 __attribute__((vector_size(32)));

/// The types that go with a double (pow4's scalar form) or a lane
/// vector: `Bits` for the masks pow4 applies to its sign, exponent and
/// mantissa, and `Mask` for a comparison's result (all ones in a lane
/// where it holds).
template <class T>
struct LaneTypes;
template <>
struct LaneTypes<double> {
  using Bits = std::uint64_t;
  using Mask = bool;
};
template <>
struct LaneTypes<Lanes2> {
  typedef std::uint64_t Bits __attribute__((vector_size(16)));
  typedef std::int64_t Mask __attribute__((vector_size(16)));
};
template <>
struct LaneTypes<Lanes4> {
  typedef std::uint64_t Bits __attribute__((vector_size(32)));
  typedef std::int64_t Mask __attribute__((vector_size(32)));
};
template <class T>
using LaneMask = typename LaneTypes<T>::Mask;

/// x⁴ rounded once (`s`), and `exact` where `s` is provably the double
/// `std::pow(x, 4.0)` returns.
template <class T>
struct Pow4Split {
  T s;
  LaneMask<T> exact;
};

/// pow4's arithmetic without its libm fallback, written once for a
/// double and for each lane vector, so that `pow4` and
/// `idm_accelerationv` perform the same IEEE operations in the same
/// order. x² = p + e and p² = h4 + l4 are
/// exact double-double products (Veltkamp split, Dekker product), so
/// h4 + (l4 + 2pe) is within ~2⁻⁵¹ ulp of the exact x⁴ (e² is below
/// that). Fast2Sum rounds it once to s with an exact residual r. When
/// |r| <= 0.45 ulp(s), the exact x⁴ lies at least 0.05 ulp from both
/// rounding midpoints around s, so any pow with error below 0.55 ulp
/// returns s; glibc's `pow` source states a worst case of 0.52–0.54
/// ulp. `exact` is false inside that 0.05 ulp band (about 10 % of
/// inputs), at a power of two (the ulp below is half the ulp above),
/// and where p² is near the subnormal range, huge, infinite or NaN.
///
/// The split assumes each product is rounded before it is summed. On an
/// FMA target GCC still contracts some of them; with h4 kept rounded
/// (below), a GCC 12.2 -march=native build passes
/// IdmLaw.Pow4MatchesLibmBitForBit, which checks the whole contract.
/// Always inlined, with `__builtin_bit_cast` for its casts, so that a
/// lane vector never crosses a call even in an unoptimised build.
template <class T>
[[gnu::always_inline]] inline Pow4Split<T> pow4_split(const T& x) {
  using Bits = typename LaneTypes<T>::Bits;
  using Mask = LaneMask<T>;
  constexpr double kSplit = 0x1p27 + 1.0;  // 53-bit mantissa -> 26 + 27 bits
  const T xc = kSplit * x;
  const T xh = xc - (xc - x);
  const T xl = x - xh;
  const T p = x * x;
  const T e = ((xh * xh - p) + 2.0 * xh * xl) + xl * xl;
  const T pc = kSplit * p;
  const T ph = pc - (pc - p);
  const T pl = p - ph;
  const T h4 = p * p;
  const T l4 = ((ph * ph - h4) + 2.0 * ph * pl) + pl * pl;
  const T t = l4 + 2.0 * p * e;
  const T s = h4 + t;
  const T r = t - (s - h4);
  const Bits bits = __builtin_bit_cast(Bits, s);
  const T exponent_scale = __builtin_bit_cast(T, bits & 0x7FF0'0000'0000'0000ULL);
  const T abs_r = __builtin_bit_cast(T, __builtin_bit_cast(Bits, r) & 0x7FFF'FFFF'FFFF'FFFFULL);
  // The range test reads h4, not s: a use of h4 that is not a sum
  // keeps GCC (-ffp-contract=fast, its default) on an FMA target from
  // fusing p·p into l4's and s's sums, which would drop h4's rounding.
  const Mask exact = Mask((bits & 0x000F'FFFF'FFFF'FFFFULL) != 0) & Mask(h4 >= 0x1p-900) &
                     Mask(h4 <= 0x1p1000) & Mask(abs_r <= 0.45 * 0x1p-52 * exponent_scale);
  return {s, exact};
}

/// x⁴, bit for bit the double `std::pow(x, 4.0)` returns, without
/// calling libm on ~90 % of inputs: `pow4_split`'s s where it is exact,
/// else `std::pow(x, 4.0)` itself.
inline double pow4(double x) {
  const auto [s, exact] = pow4_split(x);
  return exact ? s : std::pow(x, 4.0);
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

/// The lane-generic law's result: per lane the acceleration, and
/// `exact` all ones where that is bit for bit what `idm_acceleration`
/// returns.
template <class V>
struct IdmLanes {
  V accel;
  LaneMask<V> exact;
};

/// `idm_acceleration` for a vector of drivers at once and δ = 4 only:
/// the same IEEE operations in the same order, lane by lane, with x⁴
/// from `pow4_split` and `std::max(a, b)` as the per-lane select
/// `a < b ? b : a`. A lane whose `exact` is zero (x⁴ in pow4's libm
/// band) must be evaluated again by `idm_acceleration`; the three
/// divisions cost about as much for a vector as for one driver. Vectors
/// go in by reference and out in a struct: GCC's -Wpsabi flags a
/// 32-byte vector passed or returned by value in a function built
/// without AVX, even one that is always inlined.
template <class V>
[[gnu::always_inline]] inline IdmLanes<V> idm_accelerationv(const IdmParams& p, const V& v0,
                                                            double headway_s, double brake_scale,
                                                            const V& v, const V& gap,
                                                            const V& dv) {
  const auto [free, exact] = pow4_split(v / v0);
  const V zero{};
  const V min_gap = zero + 0.01;
  const V dynamic = v * headway_s + v * dv / brake_scale;
  const V s_star = p.min_gap_m + (zero < dynamic ? dynamic : zero);
  const V ratio = s_star / (gap < min_gap ? min_gap : gap);
  return {p.max_accel_mps2 * (1.0 - free - ratio * ratio), exact};
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
