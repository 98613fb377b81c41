// The space-sharded conservative engine (DESIGN.md §3.9), bottom-up:
// the SPSC seam mailbox, the scheduler's tagged-merge primitives, the
// ShardEngine's deterministic cross-shard ordering, and — the contract
// the whole construction exists for — end-to-end equivalence: a sharded
// trial / traffic run must produce the same physical results as the
// serial engine at every shard count, and with_shards(1) must be the
// serial engine, bit for bit.

#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario_builder.hpp"
#include "core/sharded_scenario.hpp"
#include "core/traffic_scenario.hpp"
#include "core/trial.hpp"
#include "queue/red.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace eblnet {
namespace {

using sim::SeamMailbox;
using sim::Time;

// ---- SeamMailbox -------------------------------------------------------

TEST(SeamMailboxTest, FifoOrderAcrossWrapAround) {
  SeamMailbox box{8};
  int fired = 0;
  for (int round = 0; round < 5; ++round) {  // 5 x 6 pushes wraps an 8-ring twice
    for (int i = 0; i < 6; ++i) {
      const int expect = round * 6 + i;
      SeamMailbox::Msg m;
      m.at = Time::microseconds(std::int64_t{expect});
      m.seq = static_cast<std::uint64_t>(expect);
      m.fn = [&fired, expect] {
        EXPECT_EQ(fired, expect);
        ++fired;
      };
      ASSERT_TRUE(box.try_push(m));
    }
    SeamMailbox::Msg out;
    while (box.try_pop(out)) out.fn();
  }
  EXPECT_EQ(fired, 30);
  EXPECT_TRUE(box.empty());
}

TEST(SeamMailboxTest, FullRingRejectsWithoutConsumingTheMessage) {
  SeamMailbox box{4};
  for (int i = 0; i < 4; ++i) {
    SeamMailbox::Msg m;
    m.seq = static_cast<std::uint64_t>(i);
    m.fn = [] {};
    ASSERT_TRUE(box.try_push(m));
  }
  bool kept_payload = false;
  SeamMailbox::Msg overflow;
  overflow.seq = 99;
  overflow.fn = [&kept_payload] { kept_payload = true; };
  EXPECT_FALSE(box.try_push(overflow));
  ASSERT_TRUE(overflow.fn) << "failed push must leave the message intact";
  overflow.fn();
  EXPECT_TRUE(kept_payload);

  SeamMailbox::Msg out;
  ASSERT_TRUE(box.try_pop(out));  // free one slot
  EXPECT_EQ(out.seq, 0u);
  EXPECT_TRUE(box.try_push(overflow));
}

// ---- Scheduler merge primitives ---------------------------------------

TEST(SchedulerShardTest, TaggedEventsMergeAfterLocalsAtEqualTime) {
  sim::Scheduler sched;
  std::vector<std::string> order;
  const Time t = Time::milliseconds(1);
  sched.schedule_at(t, [&] { order.push_back("local0"); });
  // A "remote" replay from shard 1 at the same timestamp: seq in the
  // source-shard band, far above any FIFO counter.
  sched.schedule_tagged(t, (std::uint64_t{2} << sim::ShardEngine::kRemoteSeqShift) | 7,
                        [&] { order.push_back("remote-s1"); });
  sched.schedule_tagged(t, (std::uint64_t{1} << sim::ShardEngine::kRemoteSeqShift) | 3,
                        [&] { order.push_back("remote-s0"); });
  sched.schedule_at(t, [&] { order.push_back("local1"); });
  sched.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"local0", "local1", "remote-s0", "remote-s1"}));
}

TEST(SchedulerShardTest, RunBelowIsStrictAndPreservesLaterEvents) {
  sim::Scheduler sched;
  std::vector<int> ran;
  const Time t1 = Time::milliseconds(1);
  const Time t2 = Time::milliseconds(2);
  sched.schedule_at(t1, [&] { ran.push_back(1); });
  sched.schedule_tagged(t2, std::uint64_t{1} << sim::ShardEngine::kRemoteSeqShift,
                        [&] { ran.push_back(3); });
  sched.schedule_at(t2, [&] { ran.push_back(2); });

  // Bound exactly at the remote's key: locals at t2 run, the remote not.
  sched.run_below(t2, std::uint64_t{1} << sim::ShardEngine::kRemoteSeqShift);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), t2) << "clock rests on the last executed event, not the bound";

  Time at;
  std::uint64_t seq = 0;
  ASSERT_TRUE(sched.peek_next_key(at, seq));
  EXPECT_EQ(at, t2);
  EXPECT_EQ(seq, std::uint64_t{1} << sim::ShardEngine::kRemoteSeqShift);

  sched.run_below(t2, (std::uint64_t{1} << sim::ShardEngine::kRemoteSeqShift) + 1);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
}

// ---- ShardEngine -------------------------------------------------------

TEST(ShardEngineTest, CrossPostsExecuteAtTheirTimestampInMergeOrder) {
  sim::Scheduler s0, s1;
  sim::ShardEngine engine{{&s0, &s1}, Time::milliseconds(10)};
  std::vector<std::string> log1;  // written only by shard 1's thread

  // Shard 0 posts into shard 1 for t = 2 ms; shard 1 also has a local
  // event at exactly 2 ms — the local must run first.
  s0.schedule_at(Time::milliseconds(1), [&] {
    engine.post(0, 1, Time::milliseconds(2), [&log1] { log1.push_back("remote@2"); });
  });
  s1.schedule_at(Time::milliseconds(2), [&log1] { log1.push_back("local@2"); });
  s1.schedule_at(Time::milliseconds(3), [&log1] { log1.push_back("local@3"); });

  engine.run();
  EXPECT_EQ(log1, (std::vector<std::string>{"local@2", "remote@2", "local@3"}));
  EXPECT_EQ(engine.stats(0).posted, 1u);
  EXPECT_EQ(engine.stats(1).received, 1u);
  EXPECT_EQ(engine.seam_messages(), 1u);
  EXPECT_EQ(s0.now(), Time::milliseconds(10));
  EXPECT_EQ(s1.now(), Time::milliseconds(10));
}

TEST(ShardEngineTest, ChainedPostsPingPongDeterministically) {
  // A message chain bouncing between two shards, each hop scheduling the
  // next 1 ms later: exercises promise advancement past both schedulers
  // running dry between hops.
  sim::Scheduler s0, s1;
  sim::ShardEngine engine{{&s0, &s1}, Time::milliseconds(64)};
  std::vector<std::int64_t> hops;  // ms timestamps, alternating shards

  std::function<void(std::size_t)> hop = [&](std::size_t here) {
    const Time now = (here == 0 ? s0 : s1).now();
    hops.push_back(now.ns() / 1'000'000);
    const Time next = now + Time::milliseconds(1);
    if (next > Time::milliseconds(8)) return;
    engine.post(here, 1 - here, next, [&hop, here] { hop(1 - here); });
  };
  s0.schedule_at(Time::milliseconds(1), [&hop] { hop(0); });

  engine.run();
  EXPECT_EQ(hops, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(engine.stats(0).posted + engine.stats(1).posted, 7u);
}

TEST(ShardEngineTest, PostsPastTheHorizonAreDropped) {
  sim::Scheduler s0, s1;
  sim::ShardEngine engine{{&s0, &s1}, Time::milliseconds(5)};
  bool ran_late = false;
  s0.schedule_at(Time::milliseconds(1), [&] {
    engine.post(0, 1, Time::milliseconds(9), [&ran_late] { ran_late = true; });
  });
  engine.run();
  EXPECT_FALSE(ran_late);
  EXPECT_EQ(engine.stats(0).dropped, 1u);
}

// ---- end-to-end equivalence: sharded vs serial oracle ------------------

void expect_same_samples(const std::vector<trace::DelaySample>& a,
                         const std::vector<trace::DelaySample>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src) << what << " sample " << i;
    EXPECT_EQ(a[i].dst, b[i].dst) << what << " sample " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << what << " sample " << i;
    EXPECT_EQ(a[i].sent, b[i].sent) << what << " sample " << i;
    EXPECT_EQ(a[i].received, b[i].received) << what << " sample " << i;
  }
}

void expect_same_series(const stats::TimeSeries& a, const stats::TimeSeries& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].t, b.points()[i].t) << what << " point " << i;
    EXPECT_EQ(a.points()[i].value, b.points()[i].value) << what << " point " << i;
  }
}

/// Everything physically observable must match; scheduler event totals
/// may not (seam replays are extra events by design).
void expect_equivalent(const core::TrialResult& serial, const core::TrialResult& sharded) {
  expect_same_samples(serial.p1_middle, sharded.p1_middle, "p1_middle");
  expect_same_samples(serial.p1_trailing, sharded.p1_trailing, "p1_trailing");
  expect_same_samples(serial.p2_middle, sharded.p2_middle, "p2_middle");
  expect_same_samples(serial.p2_trailing, sharded.p2_trailing, "p2_trailing");
  expect_same_series(serial.p1_throughput, sharded.p1_throughput, "p1_throughput");
  expect_same_series(serial.p2_throughput, sharded.p2_throughput, "p2_throughput");
  EXPECT_EQ(serial.p1_initial_packet_delay_s, sharded.p1_initial_packet_delay_s);
  EXPECT_EQ(serial.ifq_drops, sharded.ifq_drops);
  EXPECT_EQ(serial.phy_collisions, sharded.phy_collisions);
  EXPECT_EQ(serial.mac_retry_drops, sharded.mac_retry_drops);
  EXPECT_EQ(serial.routing_control_sends, sharded.routing_control_sends);
  EXPECT_EQ(serial.data_frame_sends, sharded.data_frame_sends);
  EXPECT_EQ(serial.resilience.delivery_ratio, sharded.resilience.delivery_ratio);
}

core::ScenarioConfig equivalence_config() {
  return core::ScenarioBuilder::trial3()
      .platoon_size(4)
      .duration(Time::seconds(std::int64_t{6}))
      .seed(5)
      .mutate([](core::ScenarioConfig& c) { c.node_rng_streams = true; })
      .build();
}

TEST(ShardedTrialTest, MatchesSerialOracleAtEveryShardCount) {
  const core::ScenarioConfig cfg = equivalence_config();
  const core::TrialResult serial = core::run_trial(cfg);
  ASSERT_FALSE(serial.p1_middle.empty()) << "oracle produced no traffic — test is vacuous";

  for (const std::size_t k : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    core::ShardRunDiagnostics diag;
    const core::TrialResult sharded = core::run_sharded_trial(cfg, k, {}, &diag);
    expect_equivalent(serial, sharded);
    EXPECT_EQ(diag.shards, k);
    ASSERT_EQ(diag.per_shard.size(), k);
    EXPECT_GT(diag.broadcasts, 0u);
    EXPECT_GT(diag.total_events, serial.events_executed)
        << "sharded total should exceed serial by the seam replays";
    // Extra events = one per executed seam replay, plus each extra
    // shard's own sampler train (every shard samples sink bytes on the
    // serial monitor's schedule, so that overhead is bounded by
    // (k - 1) * sample count).
    const std::uint64_t extra = diag.total_events - serial.events_executed;
    EXPECT_GE(extra, diag.remote_injects) << "every seam replay is one extra event";
    const std::uint64_t sampler_budget =
        (k - 1) * static_cast<std::uint64_t>(serial.p1_throughput.size() +
                                             serial.p2_throughput.size() + 2);
    EXPECT_LE(extra - diag.remote_injects, sampler_budget)
        << "non-replay overhead should be just the per-shard samplers";
  }
}

TEST(ShardedTrialTest, NakagamiKeyedPairStreamsMatchSerialOracle) {
  // With keyed per-pair fade streams every fade is a pure function of
  // (seed, tx, rx, transmit time) — evaluation order stops mattering, so
  // the sharded engine (which evaluates only owned pairs) reproduces the
  // serial Nakagami run exactly.
  core::ScenarioConfig cfg = equivalence_config();
  cfg.propagation = core::PropagationType::kNakagami;
  cfg.nakagami_m = 3.0;
  cfg.nakagami_node_streams = true;
  const core::TrialResult serial = core::run_trial(cfg);
  ASSERT_FALSE(serial.p1_middle.empty()) << "oracle produced no traffic — test is vacuous";

  for (const std::size_t k : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    const core::TrialResult sharded = core::run_sharded_trial(cfg, k);
    expect_equivalent(serial, sharded);
  }
}

// Every branch of the shared node-stack, propagation and platoon
// assembly the sharded engine builds its worlds with: TDMA, the routing
// baselines, RED + ARP, EDCA and the corner-blockage wrap.
struct BranchCase {
  const char* name;
  core::ScenarioConfig config;
};

// ctest lists each case under its name.
void PrintTo(const BranchCase& c, std::ostream* os) { *os << c.name; }

core::ScenarioConfig branch_config(core::ScenarioBuilder builder) {
  return builder.platoon_size(4)
      .duration(Time::seconds(std::int64_t{6}))
      .seed(5)
      .mutate([](core::ScenarioConfig& c) { c.node_rng_streams = true; })
      .build();
}

// Early drops within the short run (the default RED never leaves its
// drop-free region here, so it would not tell RED from drop-tail).
// Static routing leaves ARP's first-packet resolution visible: AODV's
// broadcasts would resolve every neighbour passively.
queue::RedParams eager_red() {
  queue::RedParams red;
  red.min_thresh = 1.0;
  red.max_thresh = 3.0;
  red.max_p = 0.5;
  red.weight = 0.5;
  return red;
}

std::vector<BranchCase> branch_cases() {
  using core::ScenarioBuilder;
  return {
      {"Trial1Tdma", branch_config(ScenarioBuilder::trial1())},
      {"Dsdv", branch_config(ScenarioBuilder::trial3().routing(core::RoutingType::kDsdv))},
      {"StaticRouting",
       branch_config(ScenarioBuilder::trial3().routing(core::RoutingType::kStatic))},
      {"RedQueueWithArp", branch_config(ScenarioBuilder::trial1()
                                            .routing(core::RoutingType::kStatic)
                                            .red_queue(eager_red())
                                            .arp())},
      {"Edca", branch_config(ScenarioBuilder::trial3().with_edca())},
      {"CornerBlockage", branch_config(ScenarioBuilder::trial3().with_intersection_blockage())},
  };
}

class ShardedTrialBranchTest : public ::testing::TestWithParam<BranchCase> {};

TEST_P(ShardedTrialBranchTest, MatchesSerialOracle) {
  const core::ScenarioConfig& cfg = GetParam().config;
  const core::TrialResult serial = core::run_trial(cfg);
  ASSERT_FALSE(serial.p1_middle.empty()) << "oracle produced no traffic — test is vacuous";

  for (const std::size_t k : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    expect_equivalent(serial, core::run_sharded_trial(cfg, k));
  }
}

INSTANTIATE_TEST_SUITE_P(Branches, ShardedTrialBranchTest, ::testing::ValuesIn(branch_cases()));

TEST(ShardedTrialTest, WithShardsOneIsBitIdenticalToTheSerialEngine) {
  // No forced RNG streams here: k = 1 must be the untouched legacy path.
  const core::ScenarioConfig cfg = core::ScenarioBuilder::trial3()
                                       .platoon_size(3)
                                       .duration(Time::seconds(std::int64_t{4}))
                                       .seed(9)
                                       .build();
  const core::TrialResult a = core::run_trial(cfg);
  core::ShardRunDiagnostics diag;
  diag.seam_messages = 123;  // must be reset by the serial fallthrough
  const core::TrialResult b =
      core::ScenarioBuilder{cfg}.with_shards(1, &diag).run();
  expect_equivalent(a, b);
  EXPECT_EQ(a.events_executed, b.events_executed) << "k = 1 must be bit-identical, events included";
  EXPECT_EQ(diag.shards, 1u);
  EXPECT_EQ(diag.seam_messages, 0u);
}

TEST(ShardedTrialTest, RejectsConfigsTheSeamProtocolCannotReplicate) {
  const core::ScenarioConfig base = equivalence_config();

  // Plain (shared-stream) Nakagami stays rejected: only the keyed
  // per-pair variant (nakagami_node_streams) is order-independent.
  core::ScenarioConfig nakagami = base;
  nakagami.propagation = core::PropagationType::kNakagami;
  EXPECT_THROW(core::run_sharded_trial(nakagami, 2), std::invalid_argument);

  core::ScenarioConfig beaconing = base;
  beaconing.beacon.enabled = true;
  EXPECT_THROW(core::run_sharded_trial(beaconing, 2), std::invalid_argument);

  core::ScenarioConfig reactive = base;
  reactive.reactive.enabled = true;
  EXPECT_THROW(core::run_sharded_trial(reactive, 2), std::invalid_argument);

  core::ScenarioConfig faulted = base;
  faulted.faults.crash(1, Time::seconds(std::int64_t{1}));
  EXPECT_THROW(core::run_sharded_trial(faulted, 2), std::invalid_argument);

  EXPECT_THROW(core::run_sharded_trial(base, 65), std::invalid_argument);
}

void expect_traffic_matches_serial(double penetration, std::size_t k) {
  core::TrafficConfig cfg;
  cfg.enabled = true;
  cfg.flow = mobility::TrafficFlowParams::highway(2, /*length_m=*/2000.0,
                                                  /*flow_veh_per_s_per_lane=*/0.3);
  cfg.flow.max_vehicles = 60;
  cfg.duration = Time::seconds(std::int64_t{120});
  cfg.incident_at = Time::seconds(std::int64_t{40});
  cfg.incident_hold = Time::seconds(std::int64_t{30});
  cfg.penetration = penetration;
  cfg.seed = 3;
  cfg.node_rng_streams = true;

  core::TrafficScenario serial{cfg};
  serial.run();
  const core::TrafficRunResult want = serial.result("serial");
  ASSERT_GT(want.vehicles_spawned, 0u);
  ASSERT_GT(want.warnings_originated, 0u) << "incident produced no warnings — test is vacuous";

  core::ShardRunDiagnostics diag;
  const core::TrafficRunResult got = core::run_sharded_traffic(cfg, k, "sharded", &diag);
  EXPECT_EQ(got.vehicles_spawned, want.vehicles_spawned);
  EXPECT_EQ(got.equipped, want.equipped);
  EXPECT_EQ(got.warnings_originated, want.warnings_originated);
  EXPECT_EQ(got.warning_receptions, want.warning_receptions);
  EXPECT_EQ(got.reactions, want.reactions);
  EXPECT_EQ(got.shockwave_points, want.shockwave_points);
  EXPECT_EQ(got.shockwave_speed_mps, want.shockwave_speed_mps);
  EXPECT_EQ(got.congestion_onset_s, want.congestion_onset_s);
  EXPECT_EQ(got.slowed_vehicles, want.slowed_vehicles);
  EXPECT_EQ(got.final_mean_speed_mps, want.final_mean_speed_mps);
  EXPECT_EQ(diag.shards, k);
}

TEST(ShardedTrafficTest, MatchesSerialOracle) { expect_traffic_matches_serial(1.0, 2); }

TEST(ShardedTrafficTest, PartialPenetrationMatchesSerialOracleAtThreeShards) {
  expect_traffic_matches_serial(0.5, 3);
}

}  // namespace
}  // namespace eblnet
