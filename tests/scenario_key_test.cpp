// The canonical scenario key (core::campaign::scenario_key) is the run
// cache's address space: two configs share a key exactly when they are
// the same simulation. These tests pin the three invariants that make
// that safe — insensitivity to how a config was built (call order,
// unresolved "auto" fields, parameters gated off by mode flags),
// sensitivity to every knob that reaches the simulation, and long-term
// stability (a golden key file: an accidental canonicalisation change
// would silently orphan every existing cache entry, so it must show up
// as a diff here first).

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/campaign/scenario_key.hpp"
#include "core/scenario_builder.hpp"
#include "gated_configs.hpp"
#include "sim/fault.hpp"

using namespace eblnet;
using core::campaign::Key;
using core::campaign::canonical_scenario_text;
using core::campaign::mix_fingerprint;
using core::campaign::scenario_key;

namespace {

core::ScenarioConfig base_config() { return core::trial1_config(); }

}  // namespace

TEST(ScenarioKeyTest, HexIs32LowercaseHexChars) {
  const std::string hex = scenario_key(base_config()).hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) EXPECT_TRUE(std::isxdigit(c) && !std::isupper(c)) << hex;
}

TEST(ScenarioKeyTest, KeyIsCallOrderInvariant) {
  // The key hashes the resolved config, not the construction recipe.
  const core::ScenarioConfig a =
      core::ScenarioBuilder::trial1().packet_bytes(500).seed(7).build();
  const core::ScenarioConfig b =
      core::ScenarioBuilder::trial1().seed(7).packet_bytes(500).build();
  EXPECT_EQ(scenario_key(a), scenario_key(b));
  EXPECT_EQ(canonical_scenario_text(a), canonical_scenario_text(b));
}

TEST(ScenarioKeyTest, AutoDepartResolvesToExplicitEquivalent) {
  // platoon2_depart zero means "when platoon 1 has stopped"; writing the
  // resolved instant explicitly is the same scenario and must hit the
  // same cache entry.
  core::ScenarioConfig implicit = base_config();
  implicit.platoon2_depart = sim::Time{};
  core::ScenarioConfig explicit_depart = implicit;
  explicit_depart.platoon2_depart = implicit.resolved_platoon2_depart();
  EXPECT_EQ(scenario_key(implicit), scenario_key(explicit_depart));
}

TEST(ScenarioKeyTest, GatedParametersDoNotLeakIntoKey) {
  // A parameter behind a disabled mode flag cannot reach the simulation,
  // so varying it must not fragment the cache.
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
  EXPECT_EQ(scenario_key(a), scenario_key(b));

  // An empty fault plan is bit-identity regardless of its rng_seed.
  core::ScenarioConfig c = a;
  c.faults.rng_seed = 999;
  ASSERT_TRUE(c.faults.empty());
  EXPECT_EQ(scenario_key(a), scenario_key(c));
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
  const Key base_key = scenario_key(base);
  std::map<std::string, const char*> seen{{base_key.hex(), "base"}};
  for (const auto& [name, mutate] : knobs) {
    core::ScenarioConfig cfg = base;
    mutate(cfg);
    const Key k = scenario_key(cfg);
    EXPECT_NE(k, base_key) << "knob '" << name << "' did not change the key";
    const auto [it, inserted] = seen.emplace(k.hex(), name);
    EXPECT_TRUE(inserted) << "knobs '" << name << "' and '" << it->second
                          << "' collided on key " << k.hex();
  }
}

TEST(ScenarioKeyTest, FingerprintExtendsTheKey) {
  const Key k = scenario_key(base_config());
  const Key a = mix_fingerprint(k, "build-a");
  const Key b = mix_fingerprint(k, "build-b");
  EXPECT_NE(a, k);
  EXPECT_NE(b, k);
  EXPECT_NE(a, b);
  EXPECT_EQ(mix_fingerprint(k, "build-a"), a);  // deterministic
}

TEST(ScenarioKeyTest, FaultPlanEventsAreKeyed) {
  core::ScenarioConfig a = base_config();
  a.faults = sim::FaultPlan{}.blackout(sim::Time::seconds(std::int64_t{3}),
                                       sim::Time::seconds(std::int64_t{1}));
  core::ScenarioConfig b = base_config();
  b.faults = sim::FaultPlan{}.blackout(sim::Time::seconds(std::int64_t{3}),
                                       sim::Time::seconds(std::int64_t{2}));
  EXPECT_NE(scenario_key(a), scenario_key(b));
  // A non-empty plan's rng_seed is live.
  core::ScenarioConfig c = a;
  c.faults.rng_seed = a.faults.rng_seed + 1;
  EXPECT_NE(scenario_key(a), scenario_key(c));
}

// The golden: the three paper trials' keys, plus configs that switch on
// every gate between them (gated_configs.hpp), pinned. A mismatch means
// the canonicalisation changed — every existing cache entry would be
// orphaned, so the change must be deliberate (regenerate with the hexes
// this test prints, and mention the invalidation in the PR).
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

  std::map<std::string, Key> actual{
      {"trial1", scenario_key(core::trial1_config())},
      {"trial2", scenario_key(core::trial2_config())},
      {"trial3", scenario_key(core::trial3_config())},
  };
  for (const auto& [name, cfg] : eblnet::testing::gated_configs())
    actual.emplace(name, scenario_key(cfg));
  ASSERT_EQ(golden.size(), actual.size()) << "golden " << path << " out of date";
  for (const auto& [key_name, key] : actual) {
    ASSERT_TRUE(golden.count(key_name)) << "golden missing entry " << key_name;
    EXPECT_EQ(golden[key_name], key.hex())
        << key_name << " canonicalisation changed (got " << key.hex() << ")";
  }
}
