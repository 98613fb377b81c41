#pragma once

#include <string>

#include "core/scenario.hpp"

namespace eblnet::core {

/// The canonical, fully-resolved textual form of a scenario: one
/// "name = value" line per parameter that can influence the run, in a
/// fixed order. Each trial manifest's "config" block is these lines
/// (report::write_json), so this is the one code that names
/// ScenarioConfig's fields to render them. Two configs give the same
/// text exactly when they are the same simulation:
///
///  - derived defaults are resolved (platoon2_depart's zero-means-auto
///    becomes the concrete instant; ebl.packet_bytes and the TCP payload
///    size become config.packet_bytes, exactly as EblScenario wires them);
///  - parameters gated off by a mode flag are omitted entirely (ARP/RED
///    params without use_arp/use_red_queue, the 802.11 block under TDMA
///    and vice versa, AODV/DSDV params for the other protocol,
///    nakagami_m under two-ray, reactive details when disabled, the
///    fault plan — including its rng_seed — when empty), so touching a
///    dormant knob cannot change the text;
///  - times are nanosecond integers and doubles are printed with 17
///    significant digits, both exact.
///
/// tests/data/scenario_key.golden pins a hash of the text for the paper
/// trials and for configs that open every gate.
std::string canonical_scenario_text(const ScenarioConfig& cfg);

}  // namespace eblnet::core
