#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/scenario.hpp"

namespace eblnet::core::campaign {

/// 128-bit content key (two independent 64-bit FNV-1a streams over the
/// same canonical text). 128 bits keeps accidental collisions out of
/// reach for any realistic campaign size; the hex form is the cache
/// filename.
struct Key {
  std::uint64_t hi{0};
  std::uint64_t lo{0};

  /// 32 lowercase hex characters, hi then lo.
  std::string hex() const;

  friend bool operator==(const Key&, const Key&) = default;
};

/// The canonical, fully-resolved textual form of a scenario: one
/// "name = value" line per parameter that can influence the run, in a
/// fixed order. This is what gets hashed, and each trial manifest's
/// "config" block is these lines (report::write_json), so this is the
/// one field list both share. Its resolution rules are what make the
/// cache safe against defaulting and field-order drift:
///
///  - derived defaults are resolved (platoon2_depart's zero-means-auto
///    becomes the concrete instant; ebl.packet_bytes and the TCP payload
///    size become config.packet_bytes, exactly as EblScenario wires them);
///  - parameters gated off by a mode flag are omitted entirely (ARP/RED
///    params without use_arp/use_red_queue, the 802.11 block under TDMA
///    and vice versa, AODV/DSDV params for the other protocol,
///    nakagami_m under two-ray, reactive details when disabled, the
///    fault plan — including its rng_seed — when empty), so touching a
///    dormant knob cannot split the cache;
///  - times are nanosecond integers and doubles are printed with 17
///    significant digits, both exact.
std::string canonical_scenario_text(const ScenarioConfig& cfg);

/// Hash of canonical_scenario_text — the binary-independent half of a
/// cache key (golden-tested; see tests/data/scenario_key.golden).
Key scenario_key(const ScenarioConfig& cfg);

/// Fold a binary fingerprint (campaign::build_id(), or a fixed string in
/// tests) into a scenario key, yielding the on-disk cache key.
Key mix_fingerprint(Key k, std::string_view fingerprint);

}  // namespace eblnet::core::campaign
