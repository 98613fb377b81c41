// Fast batched-pipeline smoke (ctest label "perf"): at N = 1000 — well
// past grid_min_phys, with multi-cell geometry — the batched SoA cull leg
// must deliver bit-identically to the flat loop, and a grid-forced
// scenario must be bit-identical between serial and parallel execution.
// The heavyweight scaling numbers live in bench/perf_scale; this is the
// correctness gate that runs in the test suite (and under ASan+UBSan in
// scripts/reproduce.sh).

#include <gtest/gtest.h>

#include <vector>

#include "core/runner.hpp"
#include "core/trial.hpp"
#include "phy/wireless_phy.hpp"
#include "sim/rng.hpp"
#include "test_net.hpp"

namespace eblnet::phy {
namespace {

using sim::Time;
using namespace sim::time_literals;

net::Packet make_packet(std::uint64_t uid) {
  net::Packet p;
  p.uid = uid;
  p.mac.emplace();
  return p;
}

TEST(BatchPipelineSmoke, ThousandNodeBatchedMatchesFlatBitIdentically) {
  ChannelParams batched;  // defaults: grid + batched cull at N >= 16
  ChannelParams flat;
  flat.grid_min_phys = static_cast<std::size_t>(-1);

  eblnet::testing::TestNet batched_net{7, nullptr, batched};
  eblnet::testing::TestNet flat_net{7, nullptr, flat};

  // A 20 km highway strip, dense enough that every sender has real
  // neighbours and sparse enough that the cull discards most lanes.
  sim::Rng rng{2026};
  for (int i = 0; i < 1000; ++i) {
    const mobility::Vec2 pos{rng.uniform() * 20000.0, rng.uniform() * 60.0 - 30.0};
    batched_net.add_node(pos);
    flat_net.add_node(pos);
  }
  ASSERT_TRUE(batched_net.channel().grid_active());
  ASSERT_FALSE(flat_net.channel().grid_active());

  for (std::size_t sender = 0; sender < 1000; sender += 37) {
    batched_net.channel().transmit(batched_net.phy(sender), make_packet(sender + 1), 1_ms);
    flat_net.channel().transmit(flat_net.phy(sender), make_packet(sender + 1), 1_ms);
    const auto& b = batched_net.channel().last_reachable();
    const auto& f = flat_net.channel().last_reachable();
    ASSERT_EQ(b.size(), f.size()) << "sender " << sender;
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(b[i].rx->owner(), f[i].rx->owner()) << "sender " << sender << " index " << i;
      EXPECT_EQ(b[i].power_w, f[i].power_w) << "sender " << sender << " index " << i;
      EXPECT_EQ(b[i].prop_delay, f[i].prop_delay) << "sender " << sender << " index " << i;
    }
    batched_net.run_for(10_ms);
    flat_net.run_for(10_ms);
  }

  const Channel& ch = batched_net.channel();
  // The cull did real work: most scanned lanes never reached phase 2...
  EXPECT_GT(ch.batch_culled(), 0u);
  // ...and the books balance: every scanned lane was either culled in
  // phase 1 or exactly evaluated in phase 2.
  EXPECT_EQ(ch.batch_lanes(), ch.batch_culled() + ch.pair_evaluations());
  // Phase 2 saw far less than the flat loop's N-1 per transmit.
  EXPECT_LT(ch.pair_evaluations(), flat_net.channel().pair_evaluations() / 4);
}

TEST(BatchPipelineSmoke, GridForcedScenarioIsBitIdenticalSerialVsParallel) {
  core::ScenarioConfig cfg = core::trial3_config();  // 802.11: densest phy traffic
  cfg.duration = Time::seconds(std::int64_t{6});
  cfg.channel.grid_min_phys = 0;  // every broadcast through the batched pipeline

  const core::TrialResult serial = core::run_trial(cfg);
  const core::TrialSpec specs[] = {{cfg, {}}, {cfg, {}}};
  const std::vector<core::TrialResult> parallel = core::Runner{2}.run_trials(specs);

  ASSERT_EQ(parallel.size(), 2u);
  for (const core::TrialResult& r : parallel) {
    EXPECT_EQ(r.events_executed, serial.events_executed);
    EXPECT_EQ(r.phy_collisions, serial.phy_collisions);
    ASSERT_EQ(r.p1_middle.size(), serial.p1_middle.size());
    for (std::size_t i = 0; i < r.p1_middle.size(); ++i) {
      EXPECT_EQ(r.p1_middle[i].sent, serial.p1_middle[i].sent);
      EXPECT_EQ(r.p1_middle[i].received, serial.p1_middle[i].received);
    }
  }
}

}  // namespace
}  // namespace eblnet::phy
