// app::Beacon inside the intersection scenario: seeded phase jitter,
// CBR/inter-reception metrics, determinism, and the corner-blockage
// interaction — the V2X beaconing subsystem end to end.

#include <gtest/gtest.h>

#include <memory>

#include "app/beacon.hpp"
#include "core/scenario_builder.hpp"

namespace eblnet::core {
namespace {

using sim::Time;

ScenarioBuilder beacon_builder(std::uint64_t seed = 1) {
  return ScenarioBuilder{}
      .platoon_size(3)
      .duration(Time::seconds(std::int64_t{10}))
      .routing(RoutingType::kStatic)
      .with_edca()
      .with_beacons(Time::milliseconds(100))
      .seed(seed)
      .trace(false)
      .mutate([](ScenarioConfig& c) {
        // Quiesce the EBL TCP streams so beacons dominate the air.
        c.ebl.cbr_rate_bps = 1.0;
      });
}

TEST(BeaconTest, EveryNodeBeaconsAndHearsItsNeighbours) {
  auto scenario = beacon_builder().build_scenario();
  scenario->run();
  for (std::size_t i = 0; i < scenario->node_count(); ++i) {
    // ~10 s at 10 Hz, minus the phase offset.
    EXPECT_GE(scenario->beacon(i).sent(), 90u) << "node " << i;
    EXPECT_LE(scenario->beacon(i).sent(), 100u) << "node " << i;
    EXPECT_GT(scenario->beacon(i).received(), 0u) << "node " << i;
  }
}

TEST(BeaconTest, PhaseJitterDesynchronisesTheFleetDeterministically) {
  auto a = beacon_builder().build_scenario();
  // Run exactly one interval: every node has ticked exactly once (its
  // phase is a pure hash in [0, interval)), so no two transmissions were
  // scheduled at the same instant unless their hashes collided.
  a->run_until(Time::milliseconds(100) + Time::microseconds(std::int64_t{1}));
  for (std::size_t i = 0; i < a->node_count(); ++i)
    EXPECT_EQ(a->beacon(i).sent(), 1u) << "node " << i;

  // Same seed, fresh scenario: identical reception totals (bit-level
  // determinism of the whole beaconing pipeline).
  auto b = beacon_builder().build_scenario();
  auto c = beacon_builder().build_scenario();
  b->run();
  c->run();
  for (std::size_t i = 0; i < b->node_count(); ++i) {
    EXPECT_EQ(b->beacon(i).sent(), c->beacon(i).sent());
    EXPECT_EQ(b->beacon(i).received(), c->beacon(i).received());
  }
}

TEST(BeaconTest, MetricsExposeCbrBrrAndInterReceptionTime) {
  const TrialResult r = beacon_builder().metrics().run("beacon/metrics");
  EXPECT_GT(r.metrics.total(sim::Counter::kAppBeaconSent), 0u);
  EXPECT_GT(r.metrics.total(sim::Counter::kAppBeaconReceived), 0u);
  // Inter-reception gaps cluster at the 100 ms beacon interval.
  const sim::GaugeStat inter = r.metrics.gauge(sim::Gauge::kBeaconInterRxSeconds);
  ASSERT_GT(inter.count, 0u);
  EXPECT_GT(inter.sum / static_cast<double>(inter.count), 0.05);
  EXPECT_LT(inter.sum / static_cast<double>(inter.count), 1.0);
  // The channel-busy-ratio gauge sampled once per interval per node.
  const sim::GaugeStat cbr = r.metrics.gauge(sim::Gauge::kChannelBusyRatio);
  ASSERT_GT(cbr.count, 0u);
  EXPECT_GE(cbr.min, 0.0);
  EXPECT_LE(cbr.max, 1.0);
  EXPECT_GT(cbr.max, 0.0);  // six 200 B beacons per 100 ms is not silence
}

TEST(BeaconTest, CornerBlockageStrictlyReducesReceptions) {
  // Identical seed and keyed per-pair fades: the blockage run evaluates
  // the exact same fade draws, only at lower power — its reception count
  // must be strictly below the unobstructed run's.
  const auto run_with = [](bool blockage) {
    ScenarioBuilder b = beacon_builder()
                            .platoon_size(8)
                            .propagation(PropagationType::kNakagami, 1.0)
                            .nakagami_node_streams();
    if (blockage) b.with_intersection_blockage(6.0, 20.0);
    const TrialResult r = b.metrics().run();
    return r.metrics.total(sim::Counter::kAppBeaconReceived);
  };
  const std::uint64_t open = run_with(false);
  const std::uint64_t blocked = run_with(true);
  EXPECT_GT(open, 0u);
  EXPECT_LT(blocked, open);
}

TEST(BeaconTest, BeaconAccessorThrowsWhenDisabled) {
  auto scenario = ScenarioBuilder{}.trace(false).build_scenario();
  EXPECT_THROW(scenario->beacon(0), std::logic_error);
}

TEST(BeaconTest, RejectsNonPositiveInterval) {
  const ScenarioBuilder b =
      beacon_builder().mutate([](ScenarioConfig& c) { c.beacon.interval = Time::zero(); });
  try {
    b.build_scenario();
    ADD_FAILURE() << "beacon.interval = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("interval"), std::string::npos) << e.what();
  }
}

TEST(BeaconTest, StopHaltsTransmissions) {
  auto scenario = beacon_builder().build_scenario();
  scenario->run_until(Time::seconds(std::int64_t{1}));
  for (std::size_t i = 0; i < scenario->node_count(); ++i) scenario->beacon(i).stop();
  const std::uint64_t sent_at_stop = scenario->beacon(0).sent();
  scenario->run();
  EXPECT_EQ(scenario->beacon(0).sent(), sent_at_stop);
  EXPECT_FALSE(scenario->beacon(0).running());
}

}  // namespace
}  // namespace eblnet::core
