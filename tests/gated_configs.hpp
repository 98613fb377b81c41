// Named scenario configs that between them switch on every gate of the
// canonical scenario text (core::campaign::canonical_scenario_text):
// the EDCA and DSDV blocks, static routing, ARP, RED, Nakagami with and
// without per-pair fade streams, corner blockage, beacons, reactive
// braking and a non-empty fault plan. The paper trials cover TDMA,
// 802.11, AODV and two-ray with every optional block off. Each config
// starts from a paper preset and goes through ScenarioBuilder, like a
// bench's would.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/scenario_builder.hpp"
#include "sim/fault.hpp"

namespace eblnet::testing {

inline std::vector<std::pair<std::string, core::ScenarioConfig>> gated_configs() {
  using sim::Time;
  const sim::FaultPlan faults =
      sim::FaultPlan{}
          .crash(2, Time::seconds(std::int64_t{10}), Time::seconds(std::int64_t{5}))
          .blackout(Time::seconds(std::int64_t{20}), Time::seconds(std::int64_t{1}), 0.0, 0.0,
                    50.0)
          .link_per(Time::seconds(std::int64_t{30}), Time::seconds(std::int64_t{2}), 0.25, 1, 0)
          .jam(Time::seconds(std::int64_t{40}), Time::seconds(std::int64_t{3}),
               Time::milliseconds(std::int64_t{100}), Time::milliseconds(std::int64_t{10}));
  return {
      {"trial3_dsdv_arp_red",
       core::ScenarioBuilder::trial3().routing(core::RoutingType::kDsdv).arp().red_queue().build()},
      {"trial1_static_nakagami_reactive_faults",
       core::ScenarioBuilder::trial1()
           .routing(core::RoutingType::kStatic)
           .propagation(core::PropagationType::kNakagami, 2.0)
           .with_reactive_braking()
           .with_faults(faults)
           .build()},
      {"trial2_edca_beacons_blockage_pairs",
       core::ScenarioBuilder::trial2()
           .with_edca()
           .with_beacons()
           .with_intersection_blockage()
           .propagation(core::PropagationType::kNakagami)
           .nakagami_node_streams()
           .build()},
  };
}

}  // namespace eblnet::testing
