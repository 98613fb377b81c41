// Unit tests for the per-layer metrics registry (sim/metrics.hpp): the
// disabled-by-default contract, dense per-node storage and growth,
// gauges, snapshots and sweep-level merging, and the name/layer tables
// the JSON manifest is generated from.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/metrics.hpp"

using namespace eblnet::sim;

TEST(MetricsRegistryTest, DisabledByDefaultIsANoOp) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.add(0, Counter::kPhyTx);
  reg.sample(0, Gauge::kIfqDepth, 3.0);
  EXPECT_EQ(reg.nodes(), 0u);
  EXPECT_EQ(reg.node_counter(0, Counter::kPhyTx), 0u);
  EXPECT_EQ(reg.total(Counter::kPhyTx), 0u);
}

TEST(MetricsRegistryTest, CompiledInByDefault) {
  // The normal build keeps the instrumentation; the EBLNET_METRICS_DISABLED
  // contract is covered by metrics_disabled_test.
  EXPECT_TRUE(MetricsRegistry::kCompiledIn);
}

TEST(MetricsRegistryTest, AddCountsPerNodeAndGrows) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(0, Counter::kPhyTx);
  reg.add(0, Counter::kPhyTx);
  reg.add(3, Counter::kMacTxData, 5);
  EXPECT_EQ(reg.nodes(), 4u);
  EXPECT_EQ(reg.node_counter(0, Counter::kPhyTx), 2u);
  EXPECT_EQ(reg.node_counter(3, Counter::kMacTxData), 5u);
  EXPECT_EQ(reg.node_counter(1, Counter::kPhyTx), 0u);
  EXPECT_EQ(reg.total(Counter::kPhyTx), 2u);
  EXPECT_EQ(reg.total(Counter::kMacTxData), 5u);
}

TEST(MetricsRegistryTest, GrowPreservesEarlierRows) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(0, Counter::kIfqEnqueued, 7);
  reg.add(5, Counter::kIfqEnqueued, 1);
  EXPECT_EQ(reg.nodes(), 6u);
  EXPECT_EQ(reg.node_counter(0, Counter::kIfqEnqueued), 7u);
  EXPECT_EQ(reg.node_counter(5, Counter::kIfqEnqueued), 1u);
}

TEST(MetricsRegistryTest, GaugeObservesMinMaxMean) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.sample(0, Gauge::kIfqDepth, 2.0);
  reg.sample(0, Gauge::kIfqDepth, 6.0);
  reg.sample(0, Gauge::kIfqDepth, 4.0);
  const GaugeStat s = reg.node_gauge(0, Gauge::kIfqDepth);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(MetricsRegistryTest, GaugeStatMergeHandlesEmptySides) {
  GaugeStat a;
  GaugeStat b;
  b.observe(5.0);
  b.observe(1.0);

  GaugeStat empty_into_full = b;
  empty_into_full.merge(a);  // merging an empty stat changes nothing
  EXPECT_EQ(empty_into_full.count, 2u);
  EXPECT_DOUBLE_EQ(empty_into_full.min, 1.0);

  a.merge(b);  // merging into an empty stat copies
  EXPECT_EQ(a.count, 2u);
  EXPECT_DOUBLE_EQ(a.max, 5.0);

  GaugeStat c;
  c.observe(10.0);
  c.merge(b);
  EXPECT_EQ(c.count, 3u);
  EXPECT_DOUBLE_EQ(c.min, 1.0);
  EXPECT_DOUBLE_EQ(c.max, 10.0);
  EXPECT_DOUBLE_EQ(c.sum, 16.0);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRows) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(2, Counter::kTcpDataSent, 9);
  reg.sample(2, Gauge::kTcpCwnd, 4.0);
  reg.reset();
  EXPECT_EQ(reg.nodes(), 3u);
  EXPECT_EQ(reg.node_counter(2, Counter::kTcpDataSent), 0u);
  EXPECT_EQ(reg.node_gauge(2, Gauge::kTcpCwnd).count, 0u);
  EXPECT_TRUE(reg.enabled());
}

TEST(MetricsRegistryTest, SnapshotCopiesState) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(1, Counter::kAodvRreqSent, 3);
  reg.sample(1, Gauge::kAodvRouteAcquisitionSeconds, 0.25);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.nodes, 2u);
  EXPECT_EQ(snap.node_counter(1, Counter::kAodvRreqSent), 3u);
  EXPECT_EQ(snap.total(Counter::kAodvRreqSent), 3u);
  EXPECT_EQ(snap.gauge(Gauge::kAodvRouteAcquisitionSeconds).count, 1u);

  // Snapshot is a copy: later registry activity does not leak in.
  reg.add(1, Counter::kAodvRreqSent);
  EXPECT_EQ(snap.node_counter(1, Counter::kAodvRreqSent), 3u);
}

/// An owner-kept counter, as app::TcpCbrFeeder keeps its offered messages.
struct OwnedCount final : CounterLink {
  std::uint64_t count{0};
  std::uint64_t value() const noexcept override { return count; }
};

TEST(MetricsRegistryTest, LinkedCounterReadsAsIfAddedPerEvent) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(1, Counter::kAppMessagesGenerated, 2);
  OwnedCount a;
  OwnedCount idle;
  reg.attach(a, 1, Counter::kAppMessagesGenerated);
  reg.attach(idle, 7, Counter::kAppMessagesGenerated);
  a.count = 5;
  EXPECT_EQ(reg.node_counter(1, Counter::kAppMessagesGenerated), 7u);
  EXPECT_EQ(reg.total(Counter::kAppMessagesGenerated), 7u);

  // A link that has counted nothing grows no row, as no add() would have.
  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.nodes, 2u);
  EXPECT_EQ(snap.node_counter(1, Counter::kAppMessagesGenerated), 7u);
  idle.count = 1;
  snap = reg.snapshot();
  EXPECT_EQ(snap.nodes, 8u);
  EXPECT_EQ(snap.gauges.size(), 8 * kGaugeCount);
  EXPECT_EQ(snap.node_counter(7, Counter::kAppMessagesGenerated), 1u);
  EXPECT_EQ(reg.node_counter(7, Counter::kAppMessagesGenerated), 1u);
  EXPECT_EQ(reg.total(Counter::kAppMessagesGenerated), 8u);
  EXPECT_EQ(reg.total(Counter::kPhyTx), 0u);

  // Disabled, a link is not read; destroyed, it detaches itself.
  reg.set_enabled(false);
  EXPECT_EQ(reg.snapshot().nodes, 2u);
  EXPECT_EQ(reg.snapshot().total(Counter::kAppMessagesGenerated), 2u);
  EXPECT_EQ(reg.total(Counter::kAppMessagesGenerated), 2u);
  reg.set_enabled(true);
  {
    OwnedCount gone;
    gone.count = 100;
    reg.attach(gone, 1, Counter::kAppMessagesGenerated);
    EXPECT_EQ(reg.total(Counter::kAppMessagesGenerated), 108u);
  }
  EXPECT_EQ(reg.total(Counter::kAppMessagesGenerated), 8u);
}

TEST(MetricsRegistryTest, LinkOutlivingItsRegistryDetaches) {
  OwnedCount survivor;
  {
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.attach(survivor, 0, Counter::kAppMessagesGenerated);
    survivor.count = 3;
    EXPECT_EQ(reg.total(Counter::kAppMessagesGenerated), 3u);
  }
  // Re-attaching to a fresh registry works after the old one is gone.
  MetricsRegistry again;
  again.set_enabled(true);
  again.attach(survivor, 0, Counter::kAppMessagesGenerated);
  EXPECT_EQ(again.total(Counter::kAppMessagesGenerated), 3u);
}

TEST(MetricsRegistryTest, DisabledSnapshotIsEmpty) {
  MetricsRegistry reg;
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.nodes, 0u);
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(MetricsSnapshotTest, MergeAccumulatesAcrossDifferentNodeCounts) {
  MetricsRegistry a;
  a.set_enabled(true);
  a.add(0, Counter::kPhyTx, 10);
  a.sample(0, Gauge::kIfqDepth, 1.0);

  MetricsRegistry b;
  b.set_enabled(true);
  b.add(0, Counter::kPhyTx, 5);
  b.add(4, Counter::kPhyRxOk, 2);
  b.sample(0, Gauge::kIfqDepth, 3.0);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_TRUE(merged.enabled);
  EXPECT_EQ(merged.nodes, 5u);
  EXPECT_EQ(merged.node_counter(0, Counter::kPhyTx), 15u);
  EXPECT_EQ(merged.total(Counter::kPhyRxOk), 2u);
  const GaugeStat depth = merged.gauge(Gauge::kIfqDepth);
  EXPECT_EQ(depth.count, 2u);
  EXPECT_DOUBLE_EQ(depth.min, 1.0);
  EXPECT_DOUBLE_EQ(depth.max, 3.0);

  // Merging a disabled (empty) snapshot keeps the data and the flag.
  MetricsSnapshot empty;
  merged.merge(empty);
  EXPECT_TRUE(merged.enabled);
  EXPECT_EQ(merged.node_counter(0, Counter::kPhyTx), 15u);
}

TEST(MetricsTablesTest, EveryCounterHasAUniqueNameAndKnownLayer) {
  const std::set<std::string> layers{"phy",       "mac", "ifq",  "routing",
                                     "transport", "app", "fault"};
  std::set<std::string> names;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    ASSERT_NE(counter_name(c), nullptr) << "counter " << i << " missing a name";
    ASSERT_STRNE(counter_name(c), "") << "counter " << i << " has an empty name";
    EXPECT_TRUE(names.insert(counter_name(c)).second)
        << "duplicate counter name " << counter_name(c);
    EXPECT_TRUE(layers.count(counter_layer(c)))
        << counter_name(c) << " has unknown layer " << counter_layer(c);
  }
  std::set<std::string> gauge_names;
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    const auto g = static_cast<Gauge>(i);
    ASSERT_NE(gauge_name(g), nullptr);
    EXPECT_TRUE(gauge_names.insert(gauge_name(g)).second);
  }
}

TEST(MetricsTablesTest, LayersAreContiguousRuns) {
  // The JSON writer opens one per-layer object per contiguous run of the
  // enum; a layer split into two runs would emit a duplicate JSON key.
  std::set<std::string> seen;
  std::string current;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string layer = counter_layer(static_cast<Counter>(i));
    if (layer != current) {
      EXPECT_TRUE(seen.insert(layer).second)
          << "layer " << layer << " appears in two separate runs of the Counter enum";
      current = layer;
    }
  }
}
