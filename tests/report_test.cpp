#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/scenario_text.hpp"
#include "core/trial.hpp"
#include "gated_configs.hpp"
#include "json_value.hpp"

namespace eblnet::core {
namespace {

trace::DelaySample sample(std::uint64_t seq, double sent_s, double delay_s,
                          net::NodeId src = 0, net::NodeId dst = 1) {
  trace::DelaySample s;
  s.src = src;
  s.dst = dst;
  s.seq = seq;
  s.sent = sim::Time::seconds(sent_s);
  s.received = sim::Time::seconds(sent_s + delay_s);
  return s;
}

// ---------------------------------------------------------------------------
// report helpers
// ---------------------------------------------------------------------------

TEST(ReportTest, DelaySeriesPrintsRowsAndTruncates) {
  std::ostringstream os;
  std::vector<trace::DelaySample> samples;
  for (std::uint64_t i = 0; i < 10; ++i) samples.push_back(sample(i, 1.0 + i, 0.5));
  report::print_delay_series({os, 6, "s"}, "title", samples, 3);
  const std::string out = os.str();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("packet_id"), std::string::npos);
  EXPECT_NE(out.find("0.500000"), std::string::npos);
  EXPECT_NE(out.find("(3 of 10 packets shown)"), std::string::npos);
}

TEST(ReportTest, ThroughputSeriesPrintsPoints) {
  std::ostringstream os;
  stats::TimeSeries ts;
  ts.add(sim::Time::seconds(0.1), 1.25);
  ts.add(sim::Time::seconds(0.2), 2.5);
  report::print_throughput_series({os, 4, "Mb/s"}, "tput", ts);
  EXPECT_NE(os.str().find("1.2500"), std::string::npos);
  EXPECT_NE(os.str().find("2.5000"), std::string::npos);
}

TEST(ReportTest, SummaryRowHandlesEmptyAndFull) {
  std::ostringstream os;
  stats::Summary s;
  report::print_summary_row({os, 4, "s"}, "empty", s);
  EXPECT_NE(os.str().find("(no samples)"), std::string::npos);
  s.add(1.0);
  s.add(3.0);
  std::ostringstream os2;
  report::print_summary_row({os2, 4, "s"}, "full", s);
  EXPECT_NE(os2.str().find("avg=2.0000"), std::string::npos);
  EXPECT_NE(os2.str().find("min=1.0000"), std::string::npos);
  EXPECT_NE(os2.str().find("n=2"), std::string::npos);
}

TEST(ReportTest, ConfidenceSentenceMatchesPaperPhrasing) {
  std::ostringstream os;
  stats::ConfidenceInterval ci;
  ci.mean = 0.988;
  ci.half_width = 0.0596;
  ci.confidence = 0.95;
  ci.samples = 10;
  report::print_confidence({os, 4, "Mbps"}, "throughput", ci);
  const std::string out = os.str();
  EXPECT_NE(out.find("within 0.0596 Mbps"), std::string::npos);
  EXPECT_NE(out.find("95% confidence"), std::string::npos);
  EXPECT_NE(out.find("6.0% relative precision"), std::string::npos);
}

TEST(ReportTest, ManifestConfigIsTheCanonicalScenarioText) {
  // The manifest's "config" lines, joined with '\n' plus a trailing
  // '\n', are exactly the canonical scenario text: one field list,
  // with the same gates and resolutions.
  std::vector<std::pair<std::string, ScenarioConfig>> configs{{"trial1", trial1_config()},
                                                              {"trial3", trial3_config()}};
  for (auto& named : eblnet::testing::gated_configs()) configs.push_back(std::move(named));
  for (const auto& [name, cfg] : configs) {
    TrialResult r;
    r.name = name;
    r.config = cfg;
    std::ostringstream ss;
    report::write_json(ss, r);
    const std::optional<eblnet::testing::JsonValue> doc = eblnet::testing::parse_json(ss.str());
    ASSERT_TRUE(doc) << name;
    const eblnet::testing::JsonValue* lines = doc->find("config");
    ASSERT_TRUE(lines != nullptr && lines->is_array()) << name;
    std::string joined;
    for (const eblnet::testing::JsonValue& line : lines->as_array()) {
      ASSERT_TRUE(line.is_string()) << name;
      joined += line.as_string() + '\n';
    }
    EXPECT_EQ(joined, canonical_scenario_text(cfg)) << name;
  }
}

// ---------------------------------------------------------------------------
// TrialResult helpers
// ---------------------------------------------------------------------------

TEST(TrialResultTest, AggregationHelpers) {
  TrialResult r;
  r.p1_middle = {sample(0, 2.0, 0.1), sample(1, 2.1, 0.2)};
  r.p1_trailing = {sample(0, 2.0, 0.3, 0, 2)};
  r.p2_middle = {sample(0, 0.1, 0.4, 3, 4)};

  EXPECT_EQ(r.p1_all().size(), 3u);
  EXPECT_EQ(r.p2_all().size(), 1u);
  EXPECT_NEAR(r.p1_delay_summary().mean(), 0.2, 1e-12);
  EXPECT_NEAR(r.p2_delay_summary().max(), 0.4, 1e-12);
}

TEST(TrialResultTest, SteadyStateSkipsTransientPackets) {
  TrialResult r;
  for (std::uint64_t i = 0; i < 100; ++i) {
    // Transient: first 50 packets at 1 s, steady state at 0.5 s.
    r.p1_middle.push_back(sample(i, 2.0 + 0.1 * static_cast<double>(i), i < 50 ? 1.0 : 0.5));
  }
  EXPECT_NEAR(r.p1_steady_state_delay_s(50), 0.5, 1e-12);
  EXPECT_NEAR(r.p1_steady_state_delay_s(0), 0.75, 1e-12);
  TrialResult empty;
  EXPECT_LT(empty.p1_steady_state_delay_s(), 0.0);
}

TEST(TrialConfigTest, NamedTrialsMatchThePaper) {
  EXPECT_EQ(trial1_config().packet_bytes, 1000u);
  EXPECT_EQ(trial1_config().mac, MacType::kTdma);
  EXPECT_EQ(trial2_config().packet_bytes, 500u);
  EXPECT_EQ(trial2_config().mac, MacType::kTdma);
  EXPECT_EQ(trial3_config().packet_bytes, 1000u);
  EXPECT_EQ(trial3_config().mac, MacType::k80211);
  // The paper's fixed parameters.
  const ScenarioConfig c = trial1_config();
  EXPECT_EQ(c.routing, RoutingType::kAodv);
  EXPECT_NEAR(c.speed_mps, 22.352, 1e-6);  // 50 mph
  EXPECT_DOUBLE_EQ(c.vehicle_gap_m, 5.0);
  EXPECT_EQ(c.ifq_capacity, 50u);
  EXPECT_EQ(c.platoon_size, 3u);
}

TEST(TrialConfigTest, ToStringNames) {
  EXPECT_STREQ(to_string(MacType::kTdma), "TDMA");
  EXPECT_STREQ(to_string(MacType::k80211), "802.11");
  EXPECT_STREQ(to_string(RoutingType::kAodv), "AODV");
  EXPECT_STREQ(to_string(RoutingType::kDsdv), "DSDV");
  EXPECT_STREQ(to_string(RoutingType::kStatic), "static");
}

TEST(TrialRunnerTest, AfterRunHookSeesFinishedScenario) {
  ScenarioConfig cfg = trial3_config();
  cfg.duration = sim::Time::seconds(std::int64_t{4});
  bool hook_ran = false;
  run_trial(cfg, "hook", [&](EblScenario& s) {
    hook_ran = true;
    EXPECT_EQ(s.env().now(), cfg.duration);
    EXPECT_GT(s.trace().size(), 0u);
  });
  EXPECT_TRUE(hook_ran);
}

TEST(TrialRunnerTest, DsdvAndStaticScenariosRun) {
  for (const RoutingType routing : {RoutingType::kDsdv, RoutingType::kStatic}) {
    ScenarioConfig cfg = trial3_config();
    cfg.routing = routing;
    cfg.dsdv.periodic_update_interval = sim::Time::seconds(std::int64_t{1});
    cfg.duration = sim::Time::seconds(std::int64_t{8});
    const TrialResult r = run_trial(cfg);
    EXPECT_GT(r.p1_middle.size(), 10u) << to_string(routing);
  }
}

TEST(TrialRunnerTest, AodvAccessorGuardsRoutingType) {
  ScenarioConfig cfg = trial3_config();
  cfg.routing = RoutingType::kStatic;
  cfg.duration = sim::Time::seconds(std::int64_t{1});
  EblScenario s{cfg};
  EXPECT_THROW(s.aodv(0), std::logic_error);
}

}  // namespace
}  // namespace eblnet::core
