// Integration test: run the paper's trials with metrics enabled and
// check the cross-layer accounting identities that any correct
// instrumentation must satisfy. The queue identity is exact; the layer
// orderings are inequalities (control frames, retries and duplicates sit
// between the layers).

#include <gtest/gtest.h>

#include "core/scenario_builder.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"

using namespace eblnet;
using sim::Counter;
using sim::Gauge;

namespace {

core::TrialResult run_with_metrics(core::ScenarioBuilder builder, const char* name) {
  return builder.metrics().duration(sim::Time::seconds(std::int64_t{32})).run(name);
}

void check_identities(const core::TrialResult& r, bool faulted = false) {
  const core::TrialMetrics& m = r.metrics;
  ASSERT_TRUE(m.enabled);
  ASSERT_GT(m.nodes, 0u);

  // The trial moved real traffic: every layer saw events.
  EXPECT_GT(m.total(Counter::kPhyTx), 0u);
  EXPECT_GT(m.total(Counter::kMacTxData), 0u);
  EXPECT_GT(m.total(Counter::kIfqEnqueued), 0u);
  EXPECT_GT(m.total(Counter::kTcpDataSent), 0u);
  EXPECT_GT(m.total(Counter::kAppMessagesGenerated), 0u);
  EXPECT_GT(m.total(Counter::kAppMessagesDelivered), 0u);

  // Layer ordering: everything the MAC transmits is radiated by the phy
  // (the phy additionally radiates control frames), and every TCP data
  // packet rides a MAC data frame at least once.
  EXPECT_GE(m.total(Counter::kPhyTx), m.total(Counter::kMacTxData));
  EXPECT_GE(m.total(Counter::kPhyRxOk) + m.total(Counter::kPhyRxCollision) +
                m.total(Counter::kPhyRxCaptured) + m.total(Counter::kPhyRxAbortedByTx),
            m.total(Counter::kMacRxData));

  // The application cannot deliver more unique messages than were offered.
  EXPECT_LE(m.total(Counter::kAppMessagesDelivered), m.total(Counter::kAppMessagesGenerated));

  // Queue conservation, exact and per node — faults included: every
  // packet offered to an interface queue either left through the MAC, was
  // dropped, was flushed by routing, was flushed by a fault (a crash or
  // blackout emptying the queue mid-flight — its own reason, not a
  // regular drop), or was still sitting there when the snapshot was
  // taken. In a fault-free run the fault term is exactly zero and this
  // is the original identity.
  for (std::uint32_t node = 0; node < m.nodes; ++node) {
    const std::uint64_t offered = m.node_counter(node, Counter::kIfqEnqueued);
    const std::uint64_t out = m.node_counter(node, Counter::kIfqDequeued) +
                              m.node_counter(node, Counter::kIfqDropped) +
                              m.node_counter(node, Counter::kIfqRemoved) +
                              m.node_counter(node, Counter::kIfqFaultFlushed) +
                              m.node_counter(node, Counter::kIfqResidual);
    EXPECT_EQ(offered, out) << "queue conservation violated at node " << node;
  }

  // RED early drops are a subset of all drops.
  EXPECT_LE(m.total(Counter::kIfqRedEarlyDrops), m.total(Counter::kIfqDropped));

  // The depth gauge samples once per accepted enqueue.
  EXPECT_EQ(m.gauge(Gauge::kIfqDepth).count, m.total(Counter::kIfqEnqueued));

  // The metrics view agrees with the trace-derived counters TrialResult
  // has always carried: every ifq-layer drop record is a queue drop
  // ("IFQ"/"RED"), a routing flush ("LNK"), or a fault flush
  // ("FLT"). Faulted runs can additionally drop unresolved ARP holds,
  // which trace at the ifq layer without a queue counter, so there the
  // trace side may only exceed the metric side.
  const std::uint64_t accounted_drops = m.total(Counter::kIfqDropped) +
                                        m.total(Counter::kIfqRemoved) +
                                        m.total(Counter::kIfqFaultFlushed);
  if (faulted) {
    EXPECT_GE(r.ifq_drops, accounted_drops);
  } else {
    EXPECT_EQ(accounted_drops, r.ifq_drops);
  }
  // The trace counter only sees "COL" drop records; the metric also
  // classifies receptions aborted by our own transmit ("TXB") as
  // collisions, so the two reconcile exactly through that counter.
  EXPECT_EQ(m.total(Counter::kPhyRxCollision),
            r.phy_collisions + m.total(Counter::kPhyRxAbortedByTx));
}

// The CSMA MACs' own statistics, summed over nodes, must equal the
// registry's counts of the same events.
template <class Mac>
void expect_mac_statistics_match_registry(core::ScenarioBuilder builder, const char* name) {
  std::uint64_t tx_data = 0, retries = 0, drops = 0, dups = 0;
  const core::TrialResult r =
      builder.metrics()
          .duration(sim::Time::seconds(std::int64_t{32}))
          .run(name, [&](core::EblScenario& s) {
            for (std::size_t i = 0; i < s.node_count(); ++i) {
              const auto* mac = dynamic_cast<const Mac*>(s.node(i).mac());
              ASSERT_NE(mac, nullptr) << "node " << i;
              tx_data += mac->tx_data_count();
              retries += mac->tx_retry_count();
              drops += mac->tx_drop_count();
              dups += mac->rx_dup_count();
            }
          });
  const core::TrialMetrics& m = r.metrics;
  EXPECT_GT(m.total(Counter::kMacRetries), 0u) << "the run never retransmitted";
  EXPECT_EQ(tx_data, m.total(Counter::kMacTxData));
  EXPECT_EQ(retries, m.total(Counter::kMacRetries));
  EXPECT_EQ(drops, m.total(Counter::kMacRetryDrops));
  EXPECT_EQ(dups, m.total(Counter::kMacDuplicates));
}

}  // namespace

TEST(MetricsConservationTest, MacStatisticsMatchTheRegistryWithoutRts) {
  expect_mac_statistics_match_registry<mac::Mac80211>(core::ScenarioBuilder::trial3(),
                                                      "trial3/rts-off");
}

TEST(MetricsConservationTest, MacStatisticsMatchTheRegistryWithRtsOnEveryFrame) {
  // The data frame that follows a CTS is counted like any other send.
  expect_mac_statistics_match_registry<mac::Mac80211>(
      core::ScenarioBuilder::trial3().mutate(
          [](core::ScenarioConfig& c) { c.mac80211.rts_threshold = 0; }),
      "trial3/rts-on");
}

TEST(MetricsConservationTest, MacStatisticsMatchTheRegistryUnderEdca) {
  expect_mac_statistics_match_registry<mac::Edca>(core::ScenarioBuilder::trial3().with_edca(),
                                                  "trial3/edca");
}

TEST(MetricsConservationTest, Trial1Tdma) {
  check_identities(run_with_metrics(core::ScenarioBuilder::trial1(), "trial1/metrics"));
}

TEST(MetricsConservationTest, Trial2TdmaSmallPackets) {
  check_identities(run_with_metrics(core::ScenarioBuilder::trial2(), "trial2/metrics"));
}

TEST(MetricsConservationTest, Trial3Dot11) {
  check_identities(run_with_metrics(core::ScenarioBuilder::trial3(), "trial3/metrics"));
}

TEST(MetricsConservationTest, ConservationHoldsExactlyUnderFaultFlushes) {
  // Crash the TCP source mid-conversation (its TDMA queue holds packets
  // waiting for a slot, so the crash flushes them in-flight): the
  // per-node conservation identity must still balance to the packet,
  // with the flushed packets showing up under their own counter rather
  // than leaking or double-counting as ordinary drops.
  const sim::FaultPlan plan = sim::FaultPlan{}.crash(
      /*node=*/0, sim::Time::seconds(4.0), /*reboot_after=*/sim::Time::seconds(3.0));
  const core::TrialResult r = run_with_metrics(
      core::ScenarioBuilder::trial1().with_faults(plan), "trial1/fault-flush");
  check_identities(r, /*faulted=*/true);
  const core::TrialMetrics& m = r.metrics;
  EXPECT_GT(m.total(Counter::kIfqFaultFlushed), 0u) << "crash never caught a non-empty queue";
}

TEST(MetricsConservationTest, MetricsOffLeavesResultEmpty) {
  const core::TrialResult r = core::ScenarioBuilder::trial1()
                                  .duration(sim::Time::seconds(std::int64_t{16}))
                                  .run("trial1/no-metrics");
  EXPECT_FALSE(r.metrics.enabled);
  EXPECT_TRUE(r.metrics.counters.empty());
}
