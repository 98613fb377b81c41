// The canonical scenario text (core::canonical_scenario_text) is every
// trial manifest's "config" block: two configs give the same text exactly
// when they are the same simulation. These tests pin the three
// invariants behind that — insensitivity to how a config was built (call
// order, unresolved "auto" fields, parameters gated off by mode flags),
// sensitivity to every knob that reaches the simulation, and long-term
// stability (a golden file of hashed texts: an accidental change to the
// field list, its gates or its formatting moves a manifest's config
// lines, so it must show up as a diff here first).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario_builder.hpp"
#include "core/scenario_text.hpp"
#include "gated_configs.hpp"
#include "sim/fault.hpp"

using namespace eblnet;
using core::canonical_scenario_text;

namespace {

core::ScenarioConfig base_config() { return core::trial1_config(); }

/// 32 lowercase hex characters: two independent 64-bit FNV-1a streams
/// over the text (the standard offset basis, then a second basis), the
/// hash the golden file has always pinned.
std::string golden_hash(std::string_view text) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto fnv1a = [&](std::uint64_t h) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= kPrime;
    }
    return h;
  };
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 "%016" PRIx64, fnv1a(0xcbf29ce484222325ULL),
                fnv1a(0x6c62272e07bb0142ULL));
  return buf;
}

/// True when some line of `text` starts with `prefix`.
bool has_line(const std::string& text, const std::string& prefix) {
  return ('\n' + text).find('\n' + prefix) != std::string::npos;
}

}  // namespace

TEST(ScenarioKeyTest, KeyIsCallOrderInvariant) {
  // The text renders the resolved config, not the construction recipe.
  const core::ScenarioConfig a =
      core::ScenarioBuilder::trial1().packet_bytes(500).seed(7).build();
  const core::ScenarioConfig b =
      core::ScenarioBuilder::trial1().seed(7).packet_bytes(500).build();
  EXPECT_EQ(canonical_scenario_text(a), canonical_scenario_text(b));
}

TEST(ScenarioKeyTest, AutoDepartResolvesToExplicitEquivalent) {
  // platoon2_depart zero means "when platoon 1 has stopped"; writing the
  // resolved instant explicitly is the same scenario and must render the
  // same text, with the instant in it.
  core::ScenarioConfig implicit = base_config();
  implicit.platoon2_depart = sim::Time{};
  core::ScenarioConfig explicit_depart = implicit;
  explicit_depart.platoon2_depart = implicit.resolved_platoon2_depart();
  ASSERT_GT(explicit_depart.platoon2_depart.ns(), 0);
  const std::string text = canonical_scenario_text(implicit);
  EXPECT_EQ(text, canonical_scenario_text(explicit_depart));
  EXPECT_TRUE(has_line(text, "platoon2_depart_ns = " +
                                 std::to_string(explicit_depart.platoon2_depart.ns()) + "\n"))
      << text;
}

TEST(ScenarioKeyTest, GatedParametersDoNotLeakIntoKey) {
  // A parameter behind a disabled mode flag cannot reach the simulation,
  // so it is absent from the text, and varying it changes nothing.
  core::ScenarioConfig a = base_config();
  ASSERT_FALSE(a.use_red_queue);
  ASSERT_EQ(a.propagation, core::PropagationType::kTwoRay);
  core::ScenarioConfig b = a;
  b.red.max_p = 0.99;
  b.nakagami_m = 42.0;
  if (!b.use_arp) b.arp.max_retries += 5;
  if (b.routing != core::RoutingType::kAodv) b.aodv.net_diameter += 1;
  ASSERT_FALSE(b.beacon.enabled);
  b.beacon.interval = sim::Time::milliseconds(std::int64_t{1});
  b.beacon.payload_bytes += 100;
  ASSERT_FALSE(b.blockage.enabled);
  b.blockage.corner_loss_db += 30.0;
  ASSERT_NE(b.mac, core::MacType::kEdca);
  b.edca.ac[0].cw_max += 1;
  const std::string text = canonical_scenario_text(a);
  EXPECT_EQ(text, canonical_scenario_text(b));
  for (const char* gated : {"arp.", "red.", "nakagami_m", "nakagami_node_streams",
                            "beacon.interval_ns", "blockage.half_width_m", "edca.",
                            "mac80211.", "dsdv.", "reactive.decel_mps2", "faults.rng_seed"})
    EXPECT_FALSE(has_line(text, gated)) << "gated-off '" << gated << "' in the text";

  // An empty fault plan is bit-identity regardless of its rng_seed.
  core::ScenarioConfig c = a;
  c.faults.rng_seed = 999;
  ASSERT_TRUE(c.faults.empty());
  EXPECT_EQ(text, canonical_scenario_text(c));
}

TEST(ScenarioKeyTest, EveryKnobChangesKey) {
  using Mutator = std::function<void(core::ScenarioConfig&)>;
  const std::vector<std::pair<const char*, Mutator>> knobs{
      {"seed", [](auto& c) { c.seed += 1; }},
      {"packet_bytes", [](auto& c) { c.packet_bytes += 4; }},
      {"mac", [](auto& c) { c.mac = core::MacType::k80211; }},
      {"platoon_size", [](auto& c) { c.platoon_size += 1; }},
      {"speed_mps", [](auto& c) { c.speed_mps += 0.5; }},
      {"vehicle_gap_m", [](auto& c) { c.vehicle_gap_m += 1.0; }},
      {"decel_mps2", [](auto& c) { c.decel_mps2 += 0.25; }},
      {"ifq_capacity", [](auto& c) { c.ifq_capacity += 1; }},
      {"use_red_queue", [](auto& c) { c.use_red_queue = true; }},
      {"brake_at", [](auto& c) { c.platoon1_brake_at = c.platoon1_brake_at + sim::Time::seconds(std::int64_t{1}); }},
      {"duration", [](auto& c) { c.duration = c.duration + sim::Time::seconds(std::int64_t{1}); }},
      {"cbr_rate", [](auto& c) { c.ebl.cbr_rate_bps += 1000.0; }},
      {"tcp_window", [](auto& c) { c.ebl.tcp.max_window += 2.0; }},
      {"delayed_ack", [](auto& c) { c.ebl.sink.delayed_ack = !c.ebl.sink.delayed_ack; }},
      {"reactive", [](auto& c) { c.reactive.enabled = !c.reactive.enabled; }},
      {"tdma_slots", [](auto& c) { c.tdma.num_slots += 1; }},
      {"tx_power", [](auto& c) { c.phy.tx_power_w *= 2.0; }},
      {"propagation", [](auto& c) { c.propagation = core::PropagationType::kNakagami; }},
      {"grid_min_phys", [](auto& c) { c.channel.grid_min_phys += 1; }},
      {"sample_interval",
       [](auto& c) {
         c.throughput_sample_interval =
             c.throughput_sample_interval + sim::Time::milliseconds(std::int64_t{1});
       }},
      {"enable_trace", [](auto& c) { c.enable_trace = !c.enable_trace; }},
      {"enable_metrics", [](auto& c) { c.enable_metrics = !c.enable_metrics; }},
      {"faults",
       [](auto& c) {
         c.faults = sim::FaultPlan{}.blackout(sim::Time::seconds(std::int64_t{3}),
                                              sim::Time::seconds(std::int64_t{1}));
       }},
      {"beacon.enabled", [](auto& c) { c.beacon.enabled = true; }},
      {"beacon.interval",
       [](auto& c) {
         c.beacon.enabled = true;
         c.beacon.interval = sim::Time::milliseconds(std::int64_t{50});
       }},
      {"beacon.priority",
       [](auto& c) {
         c.beacon.enabled = true;
         c.beacon.priority = 7;
       }},
      {"blockage.enabled", [](auto& c) { c.blockage.enabled = true; }},
      {"blockage.corner_loss",
       [](auto& c) {
         c.blockage.enabled = true;
         c.blockage.corner_loss_db += 5.0;
       }},
      {"nakagami_node_streams",
       [](auto& c) {
         c.propagation = core::PropagationType::kNakagami;
         c.nakagami_node_streams = true;
       }},
      {"edca", [](auto& c) { c.mac = core::MacType::kEdca; }},
      {"edca.cw_min",
       [](auto& c) {
         c.mac = core::MacType::kEdca;
         c.edca.ac[3].cw_min = 1;
       }},
  };

  const core::ScenarioConfig base = base_config();
  const std::string base_text = canonical_scenario_text(base);
  std::map<std::string, const char*> seen{{base_text, "base"}};
  for (const auto& [name, mutate] : knobs) {
    core::ScenarioConfig cfg = base;
    mutate(cfg);
    const std::string text = canonical_scenario_text(cfg);
    EXPECT_NE(text, base_text) << "knob '" << name << "' did not change the text";
    const auto [it, inserted] = seen.emplace(text, name);
    EXPECT_TRUE(inserted) << "knobs '" << name << "' and '" << it->second
                          << "' render the same text";
  }
}

TEST(ScenarioKeyTest, FaultPlanEventsAreKeyed) {
  core::ScenarioConfig a = base_config();
  a.faults = sim::FaultPlan{}.blackout(sim::Time::seconds(std::int64_t{3}),
                                       sim::Time::seconds(std::int64_t{1}));
  core::ScenarioConfig b = base_config();
  b.faults = sim::FaultPlan{}.blackout(sim::Time::seconds(std::int64_t{3}),
                                       sim::Time::seconds(std::int64_t{2}));
  const std::string text = canonical_scenario_text(a);
  EXPECT_NE(text, canonical_scenario_text(b));
  EXPECT_TRUE(has_line(text, "faults.event.kind = ")) << text;
  EXPECT_TRUE(has_line(text, "faults.event.duration_ns = 1000000000\n")) << text;
  // A non-empty plan's rng_seed is live.
  EXPECT_TRUE(has_line(text, "faults.rng_seed = " + std::to_string(a.faults.rng_seed) + "\n"))
      << text;
  core::ScenarioConfig c = a;
  c.faults.rng_seed = a.faults.rng_seed + 1;
  EXPECT_NE(text, canonical_scenario_text(c));
}

// The golden: the hashed texts of the three paper trials, plus configs
// that switch on every gate between them (gated_configs.hpp), pinned. A
// mismatch means the canonical text changed, so every manifest's
// config lines move with it: the change must be deliberate (regenerate
// with the hashes this test prints, and say why in CHANGES.md).
TEST(ScenarioKeyTest, GoldenKeysUnchanged) {
  const std::string path = std::string{EBLNET_TEST_DATA_DIR} + "/scenario_key.golden";
  std::ifstream in{path};
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::map<std::string, std::string> golden;
  std::string name, hex;
  while (in >> name >> hex) {
    if (!name.empty() && name[0] == '#') {
      std::getline(in, hex);
      continue;
    }
    golden[name] = hex;
  }

  std::map<std::string, std::string> actual{
      {"trial1", golden_hash(canonical_scenario_text(core::trial1_config()))},
      {"trial2", golden_hash(canonical_scenario_text(core::trial2_config()))},
      {"trial3", golden_hash(canonical_scenario_text(core::trial3_config()))},
  };
  for (const auto& [name, cfg] : eblnet::testing::gated_configs())
    actual.emplace(name, golden_hash(canonical_scenario_text(cfg)));
  ASSERT_EQ(golden.size(), actual.size()) << "golden " << path << " out of date";
  for (const auto& [key_name, hash] : actual) {
    ASSERT_TRUE(golden.count(key_name)) << "golden missing entry " << key_name;
    EXPECT_EQ(golden[key_name], hash)
        << key_name << " canonical text changed (got " << hash << ")";
  }
}
