// The fault-injection subsystem (sim::FaultPlan / sim::FaultController):
// plan validation, the empty-plan no-perturbation guarantee, determinism
// of faulted runs (repeated seeds, serial vs parallel), and the
// scenario-level failure semantics — crash cascades, AODV re-discovery
// with a finite recorded time-to-reroute, and blackouts.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/runner.hpp"
#include "core/scenario_builder.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"

using namespace eblnet;
using sim::Counter;
using sim::FaultController;
using sim::FaultPlan;
using sim::Gauge;
using sim::Time;

namespace {

Time secs(double s) { return Time::seconds(s); }

core::ScenarioBuilder short_trial1() {
  return core::ScenarioBuilder::trial1().duration(Time::seconds(std::int64_t{16}));
}

/// Bit-level fingerprint of a run: event count plus every matched delay
/// sample's exact send/receive times.
void expect_bit_identical(const core::TrialResult& a, const core::TrialResult& b) {
  EXPECT_EQ(a.events_executed, b.events_executed);
  const auto flows_a = {&a.p1_middle, &a.p1_trailing, &a.p2_middle, &a.p2_trailing};
  const auto flows_b = {&b.p1_middle, &b.p1_trailing, &b.p2_middle, &b.p2_trailing};
  auto ita = flows_a.begin();
  auto itb = flows_b.begin();
  for (; ita != flows_a.end(); ++ita, ++itb) {
    ASSERT_EQ((*ita)->size(), (*itb)->size());
    for (std::size_t i = 0; i < (*ita)->size(); ++i) {
      EXPECT_EQ((**ita)[i].sent, (**itb)[i].sent);
      EXPECT_EQ((**ita)[i].received, (**itb)[i].received);
    }
  }
  EXPECT_EQ(a.ifq_drops, b.ifq_drops);
  EXPECT_EQ(a.phy_collisions, b.phy_collisions);
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan validation and controller lifecycle
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ValidatesEvents) {
  sim::Scheduler sched;
  const auto install = [&sched](const FaultPlan& plan) {
    FaultController c;
    c.install(plan, sched, nullptr, 1);
  };

  EXPECT_THROW(install(FaultPlan{}.crash(sim::kAnyNode, secs(1.0))), std::invalid_argument);
  EXPECT_THROW(install(FaultPlan{}.blackout(secs(1.0), Time::zero())), std::invalid_argument);
  EXPECT_THROW(install(FaultPlan{}.link_per(secs(1.0), secs(1.0), 1.5)), std::invalid_argument);
  EXPECT_THROW(install(FaultPlan{}.link_per(secs(1.0), secs(1.0), -0.1)), std::invalid_argument);
  // And a well-formed plan installs fine.
  EXPECT_NO_THROW(install(FaultPlan{}.crash(0, secs(1.0), secs(2.0))));
}

TEST(FaultPlanTest, InstallTwiceThrows) {
  sim::Scheduler sched;
  FaultController c;
  c.install(FaultPlan{}.crash(0, secs(1.0)), sched, nullptr, 1);
  EXPECT_TRUE(c.installed());
  EXPECT_THROW(c.install(FaultPlan{}.crash(1, secs(2.0)), sched, nullptr, 1), std::logic_error);
}

TEST(FaultPlanTest, EmptyPlanInstallsNothing) {
  sim::Scheduler sched;
  FaultController c;
  c.install(FaultPlan{}, sched, nullptr, 1);
  EXPECT_FALSE(c.installed());
  // Still quiescent on every hot-path gate...
  EXPECT_FALSE(c.node_down(0));
  EXPECT_FALSE(c.delivery_faults_active());
  // ...and a second (still empty) install is not an error.
  EXPECT_NO_THROW(c.install(FaultPlan{}, sched, nullptr, 1));
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(FaultDeterminismTest, EmptyPlanIsBitIdenticalToNoPlan) {
  // ScenarioConfig's default FaultPlan and an explicitly-set empty plan
  // must not differ in any observable way.
  const core::TrialResult plain = short_trial1().run("plain");
  const core::TrialResult with_empty = short_trial1().with_faults(FaultPlan{}).run("empty-plan");
  expect_bit_identical(plain, with_empty);
  EXPECT_FALSE(with_empty.resilience.faults_enabled);
}

TEST(FaultDeterminismTest, FaultedRunRepeatsBitIdentically) {
  const FaultPlan plan = FaultPlan{}
                             .crash(0, secs(4.0), secs(2.0))
                             .blackout(secs(8.0), secs(1.0))
                             .link_per(secs(10.0), secs(3.0), 0.4);
  const core::TrialResult a = short_trial1().with_faults(plan).run("faulted-a");
  const core::TrialResult b = short_trial1().with_faults(plan).run("faulted-b");
  expect_bit_identical(a, b);
  EXPECT_TRUE(a.resilience.faults_enabled);
  EXPECT_EQ(a.resilience.crashes, 1u);
  EXPECT_EQ(a.resilience.injected_drops, b.resilience.injected_drops);
}

TEST(FaultDeterminismTest, SerialAndParallelRunnersAgreeOnFaultedTrials) {
  // The three paper trials, each under its own fault schedule, run through
  // core::Runner with one worker and with four: the results must be
  // bit-identical (each faulted Env owns its RNG streams, so placement on
  // threads cannot matter).
  const auto configs = [] {
    std::vector<core::ScenarioConfig> cfgs{core::trial1_config(), core::trial2_config(),
                                           core::trial3_config()};
    for (auto& cfg : cfgs) {
      cfg.duration = Time::seconds(std::int64_t{12});
      cfg.faults =
          FaultPlan{}.crash(1, secs(3.0), secs(2.0)).link_per(secs(5.0), secs(4.0), 0.3);
    }
    return cfgs;
  }();

  const auto run_with = [&configs](unsigned jobs) {
    return core::Runner{jobs}.map(configs.size(), [&configs](std::size_t i) {
      return core::run_trial(configs[i], "det");
    });
  };
  const std::vector<core::TrialResult> serial = run_with(1);
  const std::vector<core::TrialResult> parallel = run_with(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_bit_identical(serial[i], parallel[i]);
  }
}

TEST(FaultDeterminismTest, FaultRngIsIsolatedFromScenarioRng) {
  // A PER fault draws from the controller's dedicated stream. Changing the
  // plan's rng_seed changes which deliveries die, but must not change
  // anything before the fault window opens — same first delay sample.
  FaultPlan a = FaultPlan{}.link_per(secs(8.0), secs(4.0), 0.5);
  FaultPlan b = a;
  b.rng_seed = 0x5eed;
  const core::TrialResult ra = short_trial1().with_faults(a).run("rng-a");
  const core::TrialResult rb = short_trial1().with_faults(b).run("rng-b");
  ASSERT_FALSE(ra.p1_middle.empty());
  ASSERT_FALSE(rb.p1_middle.empty());
  EXPECT_EQ(ra.p1_middle.front().sent, rb.p1_middle.front().sent);
  EXPECT_EQ(ra.p1_middle.front().received, rb.p1_middle.front().received);
}

// ---------------------------------------------------------------------------
// Scenario-level failure semantics
// ---------------------------------------------------------------------------

TEST(FaultScenarioTest, CrashSuppressesTrafficAndRebootRestoresIt) {
  // Crash the brake-light source right after braking starts; while down,
  // its EBL sends are swallowed (kFaultTxSuppressed) and after the reboot
  // traffic flows again (delay samples exist past the reboot instant).
  const core::TrialResult r = short_trial1()
                                  .metrics()
                                  .with_faults(FaultPlan{}.crash(0, secs(3.0), secs(3.0)))
                                  .run("crash");
  EXPECT_EQ(r.metrics.total(Counter::kFaultCrashes), 1u);
  EXPECT_EQ(r.metrics.total(Counter::kFaultReboots), 1u);
  EXPECT_GT(r.metrics.total(Counter::kFaultTxSuppressed), 0u);
  bool delivered_after_reboot = false;
  for (const auto& d : r.p1_middle) {
    if (d.sent > secs(6.0)) delivered_after_reboot = true;
  }
  EXPECT_TRUE(delivered_after_reboot);
}

TEST(FaultScenarioTest, RerouteAfterCrashIsFiniteAndRecorded) {
  // 802.11 detects link failures via missed ACKs; crashing the source
  // forces its neighbours through handle_link_failure and, once it
  // reboots, a fresh discovery completes — the reroute gauge must record
  // a finite, positive time-to-reroute, surfaced in the resilience block.
  const core::TrialResult r = core::ScenarioBuilder::trial3()
                                  .duration(Time::seconds(std::int64_t{16}))
                                  .metrics()
                                  .with_faults(FaultPlan{}.crash(0, secs(3.0), secs(2.0)))
                                  .run("reroute");
  const sim::GaugeStat g = r.metrics.gauge(Gauge::kAodvRerouteSeconds);
  ASSERT_GT(g.count, 0u) << "no reroute was ever recorded";
  EXPECT_GT(g.min, 0.0);
  EXPECT_GT(r.resilience.time_to_reroute_s, 0.0);
  EXPECT_LT(r.resilience.time_to_reroute_s, 16.0);
}

TEST(FaultScenarioTest, BlackoutSuppressesDeliveryInWindow) {
  const core::TrialResult r = short_trial1()
                                  .metrics()
                                  .with_faults(FaultPlan{}.blackout(secs(4.0), secs(3.0)))
                                  .run("blackout");
  EXPECT_GT(r.resilience.injected_drops, 0u);
  EXPECT_EQ(r.metrics.total(Counter::kFaultInjectedDrops), r.resilience.injected_drops);
  // No delay sample can have been received inside the blackout.
  for (const auto* flow : {&r.p1_middle, &r.p1_trailing}) {
    for (const auto& d : *flow) {
      EXPECT_FALSE(d.received > secs(4.0) && d.received < secs(7.0))
          << "packet delivered during total blackout at t=" << d.received.to_seconds();
    }
  }
  EXPECT_DOUBLE_EQ(r.resilience.outage_start_s, 4.0);
  EXPECT_DOUBLE_EQ(r.resilience.outage_end_s, 7.0);
}
