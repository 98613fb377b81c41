#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/trial.hpp"
#include "mobility/vehicle.hpp"
#include "phy/spatial_grid.hpp"
#include "phy/wireless_phy.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "test_net.hpp"

namespace eblnet::phy {
namespace {

using sim::Time;
using namespace sim::time_literals;

ChannelParams grid_forced() {
  ChannelParams p;
  p.grid_min_phys = 0;  // every broadcast takes the grid path (batched cull)
  return p;
}

ChannelParams grid_disabled() {
  ChannelParams p;
  p.grid_min_phys = static_cast<std::size_t>(-1);  // flat loop forever
  return p;
}

net::Packet make_packet(std::uint64_t uid = 1) {
  net::Packet p;
  p.uid = uid;
  p.mac.emplace();
  return p;
}

/// The observable contract: same receivers, same order, same powers, same
/// delays. (Delivery closures are scheduled in this order, so equal
/// sequences imply bit-identical downstream behaviour for deterministic
/// propagation.)
void expect_same_reachable(const Channel& grid, const Channel& flat, const char* context) {
  const auto& g = grid.last_reachable();
  const auto& f = flat.last_reachable();
  ASSERT_EQ(g.size(), f.size()) << context;
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].rx->owner(), f[i].rx->owner()) << context << " index " << i;
    EXPECT_EQ(g[i].power_w, f[i].power_w) << context << " index " << i;
    EXPECT_EQ(g[i].prop_delay, f[i].prop_delay) << context << " index " << i;
  }
}

// ---------------------------------------------------------------------------
// Grid/flat equivalence (the determinism contract)
// ---------------------------------------------------------------------------

TEST(SpatialGridEquivalence, RandomizedPositionsChannelsAndThresholds) {
  // Two identical populations — batched-cull grid and flat loop; every
  // transmit must produce the identical reachable sequence on both.
  // Positions span several cells (cell ~585 m), include co-located pairs,
  // and nodes pinned to exact cell-boundary multiples; cs thresholds and
  // frequency channels vary per node.
  eblnet::testing::TestNet grid_net{1, nullptr, grid_forced()};
  eblnet::testing::TestNet flat_net{1, nullptr, grid_disabled()};

  const TwoRayGround ranges;
  const PhyParams defaults;
  const double cell = ranges.range_for_threshold(defaults.tx_power_w, defaults.cs_threshold_w / 4) +
                      70.0 * 0.5 + 1e-6;  // mirrors the channel's sizing, only for test geometry

  sim::Rng rng{42};
  std::vector<mobility::Vec2> positions;
  std::vector<PhyParams> params;
  std::vector<std::uint32_t> channels;
  for (int i = 0; i < 48; ++i) {
    positions.push_back({rng.uniform() * 4000.0 - 2000.0, rng.uniform() * 4000.0 - 2000.0});
    PhyParams p;
    // cs threshold in [cs/4, cs): per-node interference ranges differ, all
    // within the conservative maximum the grid is sized for.
    p.cs_threshold_w = defaults.cs_threshold_w * (0.25 + 0.75 * rng.uniform());
    params.push_back(p);
    channels.push_back(rng.uniform() < 0.3 ? 1 : 0);
  }
  // Co-located pairs and exact cell-boundary stragglers.
  positions[5] = positions[4];
  positions[11] = positions[10];
  positions[20] = {0.0, 0.0};
  positions[21] = {cell, 0.0};
  positions[22] = {-cell, cell};
  positions[23] = {2.0 * cell, -cell};
  positions[24] = {cell, cell};

  for (std::size_t i = 0; i < positions.size(); ++i) {
    grid_net.add_node(positions[i], params[i]);
    flat_net.add_node(positions[i], params[i]);
    grid_net.phy(i).set_channel_id(channels[i]);
    flat_net.phy(i).set_channel_id(channels[i]);
  }

  ASSERT_TRUE(grid_net.channel().grid_active());
  ASSERT_FALSE(flat_net.channel().grid_active());

  for (std::size_t i = 0; i < positions.size(); ++i) {
    grid_net.channel().transmit(grid_net.phy(i), make_packet(i + 1), 1_ms);
    flat_net.channel().transmit(flat_net.phy(i), make_packet(i + 1), 1_ms);
    expect_same_reachable(grid_net.channel(), flat_net.channel(), "batched vs flat");
    // Drain the scheduled deliveries so pending events don't pile up.
    grid_net.run_for(10_ms);
    flat_net.run_for(10_ms);
  }
  // The grid examined strictly fewer candidate pairs for the same answer
  // (phase 2 only sees phase-1 survivors).
  EXPECT_LT(grid_net.channel().pair_evaluations(), flat_net.channel().pair_evaluations());
  // The batched leg actually culled something, and the counters balance.
  EXPECT_GT(grid_net.channel().batch_culled(), 0u);
  EXPECT_GT(grid_net.channel().batch_lanes(), grid_net.channel().batch_culled());
}

TEST(SpatialGridEquivalence, MixedThresholdsCullOnlyBeyondTheChannelRadius) {
  // Phase 1 tests one radius per channel: the interference range at the
  // most sensitive CS threshold plus the mobility slack. A less sensitive
  // radio inside that radius but beyond its own carrier range is left to
  // the exact filter, so phase 1 culls exactly the lanes beyond the
  // channel radius (and each sender's own lane), and the receivers stay
  // the flat loop's.
  eblnet::testing::TestNet grid_net{1, nullptr, grid_forced()};
  eblnet::testing::TestNet flat_net{1, nullptr, grid_disabled()};

  const PhyParams defaults;
  const ChannelParams channel_params;
  const double radius =
      TwoRayGround{}.range_for_threshold(defaults.tx_power_w, defaults.cs_threshold_w / 4) +
      (channel_params.grid_max_speed_mps * channel_params.grid_rebucket_period.to_seconds() +
       1e-6);  // the channel's query radius, computed as it computes it

  // Every radio inside one square narrower than a cell (the cell edge is
  // the radius), so every broadcast scans every lane.
  sim::Rng rng{7};
  std::vector<mobility::Vec2> positions;
  for (int i = 0; i < 40; ++i) {
    positions.push_back({rng.uniform() * 0.95 * radius, rng.uniform() * 0.95 * radius});
    PhyParams p;
    if (i % 2 == 0) p.cs_threshold_w = defaults.cs_threshold_w / 4;  // ~780 m
    grid_net.add_node(positions.back(), p);
    flat_net.add_node(positions.back(), p);
  }

  std::uint64_t beyond = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (const mobility::Vec2 to : positions) {
      const double dx = to.x - positions[i].x;
      const double dy = to.y - positions[i].y;
      if (dx * dx + dy * dy > radius * radius) ++beyond;
    }
    grid_net.channel().transmit(grid_net.phy(i), make_packet(i + 1), 1_ms);
    flat_net.channel().transmit(flat_net.phy(i), make_packet(i + 1), 1_ms);
    expect_same_reachable(grid_net.channel(), flat_net.channel(), "mixed thresholds");
    grid_net.run_for(10_ms);
    flat_net.run_for(10_ms);
  }
  const std::uint64_t n = positions.size();
  ASSERT_EQ(grid_net.channel().batch_lanes(), n * n);
  ASSERT_GT(beyond, 0u);
  EXPECT_EQ(grid_net.channel().batch_culled(), beyond + n);  // + each sender's own lane
}

TEST(SpatialGridEquivalence, MovingNodesAcrossRebucketPeriods) {
  // Vehicles cruising at 50 m/s cross cell boundaries; transmits straddle
  // several re-bucket periods, so stale buckets plus the mobility slack
  // must still produce the flat loop's exact reachable sequence.
  eblnet::testing::TestNet grid_net{1, nullptr, grid_forced()};
  eblnet::testing::TestNet flat_net{1, nullptr, grid_disabled()};

  const auto build = [](eblnet::testing::TestNet& net) {
    for (int i = 0; i < 24; ++i) {
      auto vehicle = std::make_shared<mobility::Vehicle>(
          net.env().scheduler(), mobility::Vec2{i * 150.0, (i % 3) * 400.0},
          mobility::Vec2{1.0, 0.0});
      vehicle->cruise(50.0);
      net.add_mobile_node(vehicle);
    }
  };
  build(grid_net);
  build(flat_net);

  for (int step = 0; step < 8; ++step) {
    grid_net.run_for(Time::milliseconds(400));
    flat_net.run_for(Time::milliseconds(400));
    const std::size_t sender = static_cast<std::size_t>(step * 7) % 24;
    grid_net.channel().transmit(grid_net.phy(sender), make_packet(step + 1), 1_ms);
    flat_net.channel().transmit(flat_net.phy(sender), make_packet(step + 1), 1_ms);
    expect_same_reachable(grid_net.channel(), flat_net.channel(), "moving sender");
  }
  EXPECT_GE(grid_net.channel().grid_rebuckets(), 1u);
}

TEST(SpatialGridEquivalence, AttachDetachKeepsGridConsistent) {
  // Phys joining and leaving mid-run (slot recycling included) must keep
  // grid and flat channels in lockstep.
  net::Env grid_env{1}, flat_env{1};
  Channel grid_ch{grid_env, std::make_shared<TwoRayGround>(), grid_forced()};
  Channel flat_ch{flat_env, std::make_shared<TwoRayGround>(), grid_disabled()};

  std::vector<std::unique_ptr<WirelessPhy>> grid_phys, flat_phys;
  const auto add = [&](double x, double y) {
    const auto id = static_cast<net::NodeId>(grid_phys.size());
    grid_phys.push_back(std::make_unique<WirelessPhy>(
        grid_env, id, grid_ch, [x, y] { return mobility::Vec2{x, y}; }, PhyParams{}));
    flat_phys.push_back(std::make_unique<WirelessPhy>(
        flat_env, id, flat_ch, [x, y] { return mobility::Vec2{x, y}; }, PhyParams{}));
  };
  for (int i = 0; i < 30; ++i) add(i * 90.0, 0.0);

  // Remove a third of the population (destroying the phys detaches them).
  for (int i = 0; i < 30; i += 3) {
    grid_phys[i].reset();
    flat_phys[i].reset();
  }
  // And add newcomers into the recycled slots.
  add(135.0, 45.0);
  add(405.0, -45.0);

  for (std::size_t i = 0; i < grid_phys.size(); ++i) {
    if (!grid_phys[i]) continue;
    grid_ch.transmit(*grid_phys[i], make_packet(i + 1), 1_ms);
    flat_ch.transmit(*flat_phys[i], make_packet(i + 1), 1_ms);
    expect_same_reachable(grid_ch, flat_ch, "after churn");
    grid_env.scheduler().run_until(grid_env.now() + 10_ms);
    flat_env.scheduler().run_until(flat_env.now() + 10_ms);
  }
}

// ---------------------------------------------------------------------------
// Dangling-receiver hazard (detach during the propagation delay)
// ---------------------------------------------------------------------------

class DetachFixture : public ::testing::Test {
 protected:
  net::Env env{1};
  Channel channel{env, std::make_shared<TwoRayGround>()};

  std::unique_ptr<WirelessPhy> make_phy(net::NodeId id, mobility::Vec2 pos) {
    return std::make_unique<WirelessPhy>(
        env, id, channel, [pos] { return pos; }, PhyParams{});
  }
};

TEST_F(DetachFixture, DetachMidFlightDropsDeliveryInsteadOfUseAfterFree) {
  auto tx = make_phy(0, {0.0, 0.0});
  auto rx = make_phy(1, {100.0, 0.0});  // propagation delay ~334 ns
  bool heard = false;
  rx->set_rx_end_callback([&](net::Packet, bool) { heard = true; });

  tx->transmit(make_packet(7), 1_ms);
  // Destroy the receiver after the transmit but before the signal arrives.
  env.scheduler().schedule_in(Time::nanoseconds(100), [&] { rx.reset(); });
  env.scheduler().run_until(Time::seconds(std::int64_t{1}));

  EXPECT_FALSE(heard);
  EXPECT_EQ(rx, nullptr);
}

TEST_F(DetachFixture, RecycledSlotDoesNotReceiveThePreviousOccupantsSignal) {
  auto tx = make_phy(0, {0.0, 0.0});
  auto rx = make_phy(1, {100.0, 0.0});
  std::unique_ptr<WirelessPhy> replacement;
  bool replacement_heard = false;

  tx->transmit(make_packet(7), 1_ms);
  env.scheduler().schedule_in(Time::nanoseconds(100), [&] {
    rx.reset();  // frees slot 1...
    replacement = make_phy(2, {100.0, 0.0});  // ...which the newcomer recycles
    replacement->set_rx_end_callback([&](net::Packet, bool) { replacement_heard = true; });
  });
  env.scheduler().run_until(Time::seconds(std::int64_t{1}));

  // The in-flight signal was addressed to the old generation of the slot.
  EXPECT_FALSE(replacement_heard);
  EXPECT_EQ(replacement->rx_ok_count(), 0u);
  EXPECT_FALSE(replacement->carrier_busy());
}

// ---------------------------------------------------------------------------
// Crash faults vs the grid: a crashed node leaves the grid mid-flight
// ---------------------------------------------------------------------------

TEST(SpatialGridFaults, CrashedNodeNeverHearsInFlightDeliveries) {
  // A fault-plan crash lands between a transmit and its arrival: the
  // detach must invalidate the receiver's grid slot so the in-flight
  // delivery dies, and the reboot must re-attach it so later traffic is
  // heard — the same liveness contract the dangling-receiver tests above
  // establish for destruction, now driven through sim::FaultController.
  net::Env env{1};
  Channel channel{env, std::make_shared<TwoRayGround>(), grid_forced()};
  const auto mk = [&](net::NodeId id, mobility::Vec2 pos) {
    return std::make_unique<WirelessPhy>(
        env, id, channel, [pos] { return pos; }, PhyParams{});
  };
  auto tx = mk(0, {0.0, 0.0});
  auto rx = mk(1, {100.0, 0.0});  // propagation delay ~334 ns
  int heard = 0;
  rx->set_rx_end_callback([&](net::Packet, bool) { ++heard; });
  env.faults().set_node_state_hook([&](std::uint32_t node, bool up) {
    if (node == 1) rx->set_down(!up);
  });
  env.install_faults(sim::FaultPlan{}.crash(/*node=*/1, Time::nanoseconds(100),
                                            /*reboot_after=*/Time::milliseconds(5)));
  ASSERT_TRUE(channel.grid_active());

  // Transmitted at t = 0, arriving at ~334 ns — after the crash at 100 ns.
  tx->transmit(make_packet(7), 1_ms);
  env.scheduler().run_until(Time::milliseconds(4));
  EXPECT_TRUE(env.faults().node_down(1));
  EXPECT_EQ(heard, 0);
  EXPECT_EQ(rx->rx_ok_count(), 0u);

  // After the reboot the node has rejoined the grid and hears again.
  env.scheduler().run_until(Time::milliseconds(6));
  EXPECT_FALSE(env.faults().node_down(1));
  tx->transmit(make_packet(8), 1_ms);
  env.scheduler().run_until(Time::milliseconds(10));
  EXPECT_EQ(heard, 1);
  EXPECT_EQ(rx->rx_ok_count(), 1u);
}

// ---------------------------------------------------------------------------
// SoA bucket edge cases (batched-cull pipeline)
// ---------------------------------------------------------------------------

// Run the same static population through batched and flat channels and
// require identical reachable sequences from every sender.
void expect_batched_matches_flat(const std::vector<mobility::Vec2>& positions) {
  eblnet::testing::TestNet batched{1, nullptr, grid_forced()};
  eblnet::testing::TestNet flat{1, nullptr, grid_disabled()};
  for (const mobility::Vec2& pos : positions) {
    batched.add_node(pos);
    flat.add_node(pos);
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    batched.channel().transmit(batched.phy(i), make_packet(i + 1), 1_ms);
    flat.channel().transmit(flat.phy(i), make_packet(i + 1), 1_ms);
    expect_same_reachable(batched.channel(), flat.channel(), "batched vs flat");
    batched.run_for(10_ms);
    flat.run_for(10_ms);
  }
}

TEST(SpatialGridSoA, PhysExactlyOnCellBoundaries) {
  // floor(pos / cell) puts a phy sitting exactly on a boundary in the
  // upper cell; its neighbours half a cell away on either side must still
  // hear it through the 3x3 scan, and the batched cull must keep it.
  const TwoRayGround ranges;
  const PhyParams defaults;
  const double cell = ranges.range_for_threshold(defaults.tx_power_w, defaults.cs_threshold_w) +
                      70.0 * 0.5 + 1e-6;  // mirrors the channel's cell sizing
  std::vector<mobility::Vec2> positions;
  for (int i = -2; i <= 2; ++i) {
    positions.push_back({i * cell, 0.0});          // exactly on vertical boundaries
    positions.push_back({i * cell, cell});         // and on a horizontal one
    positions.push_back({i * cell + 100.0, 50.0}); // plus in-range off-boundary peers
  }
  positions.push_back({0.0, 0.0});  // co-located with a boundary phy
  expect_batched_matches_flat(positions);
}

TEST(SpatialGridSoA, NegativeCoordinatesAroundTheKeyFold) {
  // Cell keys fold signed cell coordinates through uint32; clusters deep
  // in the negative quadrants and straddling the origin must neither
  // alias nor lose neighbours.
  std::vector<mobility::Vec2> positions;
  for (int i = 0; i < 6; ++i) {
    positions.push_back({-2.0e6 + i * 120.0, -3.0e6});      // far negative cluster
    positions.push_back({-150.0 + i * 60.0, 80.0 - i * 40.0});  // origin-straddling
    positions.push_back({1.5e6, -2.5e6 + i * 90.0});        // mixed-sign quadrant
  }
  expect_batched_matches_flat(positions);
}

TEST(SpatialGridSoA, ResetUnhooksLiveBucketedPhys) {
  // A reset (the channel does one on every grid rebuild) must unhook
  // still-live phys: a remove or update arriving afterwards has to be a
  // clean no-op / fresh insert instead of swap-removing into a cleared
  // bucket. Exercised on a standalone grid against phys whose channel
  // never builds its own (flat loop forced), so the bookkeeping fields
  // are exclusively ours.
  net::Env env{1};
  Channel channel{env, std::make_shared<TwoRayGround>(), grid_disabled()};
  std::vector<std::unique_ptr<WirelessPhy>> phys;
  for (int i = 0; i < 8; ++i) {
    const mobility::Vec2 pos{i * 50.0, 0.0};
    phys.push_back(std::make_unique<WirelessPhy>(
        env, static_cast<net::NodeId>(i), channel, [pos] { return pos; }, PhyParams{}));
  }

  SpatialGrid grid{100.0};
  for (auto& p : phys) grid.insert(p.get(), p->position());
  ASSERT_EQ(grid.size(), phys.size());

  grid.reset(250.0);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_EQ(grid.cell_size(), 250.0);

  // Post-reset remove of a phy that was bucketed: clean no-op.
  grid.remove(phys[3].get());
  EXPECT_EQ(grid.size(), 0u);

  // Post-reset update: behaves as a fresh insert.
  grid.update(phys[4].get(), phys[4]->position());
  EXPECT_EQ(grid.size(), 1u);

  // Re-populating and querying works with the new cell size.
  for (std::size_t i = 0; i < phys.size(); ++i) {
    if (i != 4) grid.insert(phys[i].get(), phys[i]->position());
  }
  EXPECT_EQ(grid.size(), phys.size());
  std::vector<GridCandidate> out;
  const std::uint64_t lanes = grid.cull({0.0, 0.0}, 1000.0, phys[0].get(), out);
  EXPECT_EQ(lanes, phys.size());  // every lane in the neighbourhood scanned
}

TEST(SpatialGridSoA, CrashedNodeCulledIdenticallyInBatchedAndFlatLegs) {
  // A FaultPlan crash detaches the phy (removing its SoA lanes); the
  // batched grid must agree with the flat loop before the crash, during
  // the outage, and after the reboot re-attaches it.
  struct Leg {
    explicit Leg(ChannelParams params)
        : env{1}, channel{env, std::make_shared<TwoRayGround>(), params} {
      for (int i = 0; i < 20; ++i) {
        const mobility::Vec2 pos{i * 120.0, 0.0};
        phys.push_back(std::make_unique<WirelessPhy>(
            env, static_cast<net::NodeId>(i), channel, [pos] { return pos; }, PhyParams{}));
      }
      env.faults().set_node_state_hook(
          [this](std::uint32_t node, bool up) { phys.at(node)->set_down(!up); });
      env.install_faults(sim::FaultPlan{}.crash(/*node=*/7, Time::milliseconds(2),
                                                /*reboot_after=*/Time::milliseconds(4)));
    }
    net::Env env;
    Channel channel;
    std::vector<std::unique_ptr<WirelessPhy>> phys;
  };

  Leg batched{grid_forced()}, flat{grid_disabled()};
  const auto step = [&](Time until, std::size_t sender, const char* context) {
    for (Leg* leg : {&batched, &flat}) {
      leg->env.scheduler().run_until(until);
      leg->channel.transmit(*leg->phys[sender], make_packet(sender + 1), 1_ms);
    }
    expect_same_reachable(batched.channel, flat.channel, context);
  };

  step(Time::milliseconds(1), 6, "before crash");  // node 7 up and heard
  const auto heard_7 = [](const Channel& ch) {
    for (const auto& r : ch.last_reachable()) {
      if (r.rx->owner() == 7) return true;
    }
    return false;
  };
  EXPECT_TRUE(heard_7(batched.channel));

  step(Time::milliseconds(3), 6, "during outage");  // node 7 down: culled
  EXPECT_FALSE(heard_7(batched.channel));

  step(Time::milliseconds(8), 6, "after reboot");  // node 7 re-attached
  EXPECT_TRUE(heard_7(batched.channel));
}

// ---------------------------------------------------------------------------
// Re-bucketing staleness bound vs a stateful dynamics side
// ---------------------------------------------------------------------------

TEST(SpatialGridStaleness, DynamicsFasterThanTheStaticBoundNeedsRaiseSpeedBound) {
  // The cull radius is padded by grid_max_speed_mps x rebucket_period: a
  // node can only move that far between re-buckets before its stale
  // bucket lies outside the padded radius. A stateful dynamics side
  // whose vehicles are faster than the static bound breaks that
  // invariant — this test first demonstrates the resulting missed
  // delivery (the regression), then shows raise_speed_bound (what
  // TrafficScenario declares at construction) restoring flat-loop
  // equivalence.
  ChannelParams grid_params = grid_forced();
  grid_params.grid_max_speed_mps = 1.0;  // a config sized for near-static nodes
  grid_params.grid_rebucket_period = Time::seconds(std::int64_t{2});
  ChannelParams flat_params = grid_params;
  flat_params.grid_min_phys = static_cast<std::size_t>(-1);

  net::Env grid_env{1}, flat_env{1};
  Channel grid_ch{grid_env, std::make_shared<TwoRayGround>(), grid_params};
  Channel flat_ch{flat_env, std::make_shared<TwoRayGround>(), flat_params};

  const PhyParams defaults;
  const double range =
      TwoRayGround{}.range_for_threshold(defaults.tx_power_w, defaults.cs_threshold_w);
  double rx_x = range + 40.0;  // outside carrier range and outside radius + slack (~2 m)
  const auto rx_pos = [&rx_x] { return mobility::Vec2{rx_x, 0.0}; };
  const auto origin = [] { return mobility::Vec2{0.0, 0.0}; };

  WirelessPhy grid_tx{grid_env, 0, grid_ch, origin, defaults};
  WirelessPhy grid_rx{grid_env, 1, grid_ch, rx_pos, defaults};
  WirelessPhy flat_tx{flat_env, 0, flat_ch, origin, defaults};
  WirelessPhy flat_rx{flat_env, 1, flat_ch, rx_pos, defaults};

  // t = 0: the first transmit builds the grid; the receiver is bucketed
  // out of range and both legs correctly deliver to nobody.
  grid_ch.transmit(grid_tx, make_packet(1), 1_ms);
  flat_ch.transmit(flat_tx, make_packet(1), 1_ms);
  ASSERT_TRUE(grid_ch.grid_active());
  EXPECT_EQ(grid_ch.last_reachable().size(), 0u);
  EXPECT_EQ(flat_ch.last_reachable().size(), 0u);

  // The receiver closes at 50 m/s — 50x the declared bound. One second
  // later (inside the re-bucket period) it sits well within carrier
  // range, but its stale bucket is outside radius + slack: the flat loop
  // hears it, the grid culls it. This is the miss the dynamics-side
  // speed bound exists to prevent.
  grid_env.scheduler().run_until(Time::seconds(std::int64_t{1}));
  flat_env.scheduler().run_until(Time::seconds(std::int64_t{1}));
  rx_x = range - 10.0;
  grid_ch.transmit(grid_tx, make_packet(2), 1_ms);
  flat_ch.transmit(flat_tx, make_packet(2), 1_ms);
  ASSERT_EQ(flat_ch.last_reachable().size(), 1u);
  EXPECT_EQ(grid_ch.last_reachable().size(), 0u)
      << "the stale static bound unexpectedly covered the fast receiver — "
         "the regression geometry no longer bites";

  // Declare the true dynamics bound. Raising it past the slack baked
  // into the current cull radius dirties the grid; the next transmit
  // rebuilds with fresh buckets and a 50 m/s slack, and the legs agree.
  grid_ch.raise_speed_bound(50.0);
  grid_ch.transmit(grid_tx, make_packet(3), 1_ms);
  flat_ch.transmit(flat_tx, make_packet(3), 1_ms);
  expect_same_reachable(grid_ch, flat_ch, "after raise_speed_bound");
  ASSERT_EQ(grid_ch.last_reachable().size(), 1u);

  // Keep moving at the declared speed between re-buckets: the enlarged
  // slack now covers it without any further rebuild.
  grid_env.scheduler().run_until(Time::milliseconds(1500));
  flat_env.scheduler().run_until(Time::milliseconds(1500));
  rx_x = range - 35.0;
  grid_ch.transmit(grid_tx, make_packet(4), 1_ms);
  flat_ch.transmit(flat_tx, make_packet(4), 1_ms);
  expect_same_reachable(grid_ch, flat_ch, "moving within the declared bound");
}

TEST(PropagationEnvelope, NakagamiEnvelopeIsDeterministicAndAboveMean) {
  sim::Rng rng{5};
  const NakagamiFading nak{3.0, rng};
  const TwoRayGround mean;
  const double d = 200.0;
  const double e1 = nak.envelope_rx_power(0.28, d);
  // Repeated calls consume no randomness and return the same value.
  EXPECT_EQ(nak.envelope_rx_power(0.28, d), e1);
  EXPECT_DOUBLE_EQ(e1, 10.0 * mean.rx_power(0.28, d));
}

// ---------------------------------------------------------------------------
// Whole-scenario equivalence: the paper trials with the grid forced on
// ---------------------------------------------------------------------------

TEST(SpatialGridScenario, ForcedGridReproducesTrialBitIdentically) {
  core::ScenarioConfig base = core::trial3_config();  // 802.11: densest phy traffic
  base.duration = sim::Time::seconds(std::int64_t{12});
  core::ScenarioConfig grid_cfg = base;
  grid_cfg.channel.grid_min_phys = 0;

  const core::TrialResult flat = core::run_trial(base);
  const core::TrialResult grid = core::run_trial(grid_cfg);

  EXPECT_EQ(flat.events_executed, grid.events_executed);
  EXPECT_EQ(flat.phy_collisions, grid.phy_collisions);
  ASSERT_EQ(flat.p1_middle.size(), grid.p1_middle.size());
  for (std::size_t i = 0; i < flat.p1_middle.size(); ++i) {
    EXPECT_EQ(flat.p1_middle[i].sent, grid.p1_middle[i].sent);
    EXPECT_EQ(flat.p1_middle[i].received, grid.p1_middle[i].received);
  }
  ASSERT_EQ(flat.p1_throughput.size(), grid.p1_throughput.size());
  for (std::size_t i = 0; i < flat.p1_throughput.size(); ++i) {
    EXPECT_EQ(flat.p1_throughput.points()[i].value, grid.p1_throughput.points()[i].value);
  }
}

// The scenario-level channel-model selector: Nakagami runs are seeded
// and repeatable, and actually change the radio outcome relative to the
// paper's deterministic two-ray channel.
TEST(SpatialGridScenario, NakagamiPropagationIsSeededAndDistinctFromTwoRay) {
  core::ScenarioConfig faded = core::trial3_config();
  faded.duration = sim::Time::seconds(std::int64_t{6});
  faded.propagation = core::PropagationType::kNakagami;

  const core::TrialResult a = core::run_trial(faded);
  const core::TrialResult b = core::run_trial(faded);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.phy_collisions, b.phy_collisions);

  core::ScenarioConfig two_ray = faded;
  two_ray.propagation = core::PropagationType::kTwoRay;
  const core::TrialResult c = core::run_trial(two_ray);
  EXPECT_NE(a.events_executed, c.events_executed);
}

}  // namespace
}  // namespace eblnet::phy
