// Golden-file schema test for the versioned JSON run manifests
// (core::report::write_json / write_sweep_json). Each freshly generated
// manifest is parsed (json_value.hpp) and walked for the set of key
// paths ("config.seed", "trials[].delay.p1.mean", ...), which is
// compared, both ways, against the golden key list under tests/data/: an
// unknown key is as much a failure as a missing one, so any schema change
// must come with a golden update and a kManifestSchemaVersion bump
// decision. This doubles as the CI check behind scripts/bench.sh's JSON
// artifacts.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/json_writer.hpp"
#include "core/report.hpp"
#include "core/scenario_builder.hpp"
#include "json_value.hpp"

using namespace eblnet;
using eblnet::testing::JsonValue;

namespace {

/// Every object key under `v` as a dotted path below `path`; an array
/// adds "path[]" (even when empty) and its elements extend that path.
void collect_key_paths(const JsonValue& v, const std::string& path,
                       std::set<std::string>& out) {
  if (v.is_object()) {
    for (const auto& [key, member] : v.as_object()) {
      const std::string full = path.empty() ? key : path + "." + key;
      out.insert(full);
      collect_key_paths(member, full, out);
    }
  } else if (v.is_array()) {
    out.insert(path + "[]");
    for (const JsonValue& element : v.as_array()) collect_key_paths(element, path + "[]", out);
  }
}

/// The key paths of a whole manifest; a document that does not parse
/// fails the calling test and yields no paths.
std::set<std::string> key_paths(const std::string& json) {
  std::set<std::string> paths;
  const std::optional<JsonValue> doc = eblnet::testing::parse_json(json);
  EXPECT_TRUE(doc) << "manifest does not parse";
  if (doc) collect_key_paths(*doc, "", paths);
  return paths;
}

std::set<std::string> load_golden(const std::string& name) {
  const std::string path = std::string{EBLNET_TEST_DATA_DIR} + "/" + name;
  std::ifstream in{path};
  EXPECT_TRUE(in) << "missing golden file " << path;
  std::set<std::string> keys;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') keys.insert(line);
  }
  return keys;
}

void expect_schema_matches(const std::set<std::string>& actual, const std::string& golden_name) {
  const std::set<std::string> golden = load_golden(golden_name);
  std::vector<std::string> unknown;
  std::vector<std::string> missing;
  for (const std::string& k : actual)
    if (!golden.count(k)) unknown.push_back(k);
  for (const std::string& k : golden)
    if (!actual.count(k)) missing.push_back(k);

  std::ostringstream msg;
  for (const std::string& k : unknown) msg << "\n  unknown key (not in golden): " << k;
  for (const std::string& k : missing) msg << "\n  missing key (in golden):     " << k;
  EXPECT_TRUE(unknown.empty() && missing.empty())
      << "manifest schema drifted from " << golden_name << " — update the golden and "
      << "consider bumping kManifestSchemaVersion:" << msg.str();
}

core::TrialResult quick_trial() {
  return core::ScenarioBuilder::trial1()
      .metrics()
      .duration(sim::Time::seconds(std::int64_t{16}))
      .run("schema-check");
}

core::TrialResult quick_faulted_trial() {
  return core::ScenarioBuilder::trial1()
      .metrics()
      .duration(sim::Time::seconds(std::int64_t{16}))
      .with_faults(sim::FaultPlan{}.blackout(sim::Time::seconds(std::int64_t{3}),
                                             sim::Time::seconds(std::int64_t{1})))
      .run("schema-check-faulted");
}

}  // namespace

TEST(ManifestSchemaTest, TrialManifestMatchesGolden) {
  std::ostringstream ss;
  core::report::write_json(ss, quick_trial());
  expect_schema_matches(key_paths(ss.str()), "manifest_trial_v9.keys");
}

TEST(ManifestSchemaTest, SweepManifestMatchesGolden) {
  const core::TrialResult r = quick_trial();
  const core::TrialResult trials[] = {r, r};
  std::ostringstream ss;
  core::report::write_sweep_json(ss, "schema-sweep", trials);
  expect_schema_matches(key_paths(ss.str()), "manifest_sweep_v9.keys");
}

TEST(ManifestSchemaTest, ResilienceManifestMatchesGolden) {
  const core::TrialResult baselines[] = {quick_trial()};
  core::report::ResilienceCell cell;
  cell.label = "blackout=1.0s";
  cell.axis = "blackout_s";
  cell.value = 1.0;
  cell.baseline_initial_delay_s = baselines[0].p1_initial_packet_delay_s;
  cell.result = quick_faulted_trial();
  const core::report::ResilienceCell cells[] = {cell};
  std::ostringstream ss;
  core::report::write_resilience_json(ss, "schema-resilience", baselines, cells);
  expect_schema_matches(key_paths(ss.str()), "manifest_resilience_v9.keys");
}

TEST(ManifestSchemaTest, TrafficManifestMatchesGolden) {
  // A tiny closed-loop run: one lane, a short road, an early incident —
  // enough to populate every row field without a long simulation.
  core::TrafficConfig cfg;
  cfg.flow = mobility::TrafficFlowParams::highway(/*lanes=*/1, /*length_m=*/600.0,
                                                  /*flow_veh_per_s_per_lane=*/0.5);
  cfg.duration = sim::Time::seconds(std::int64_t{40});
  cfg.incident_at = sim::Time::seconds(std::int64_t{15});
  cfg.seed = 7;
  const std::vector<core::TrafficRunResult> cells{
      core::ScenarioBuilder().with_traffic_flow(cfg).run_traffic("p=1.00")};
  std::ostringstream ss;
  core::report::write_traffic_json(ss, "schema-traffic", cfg, cells);
  expect_schema_matches(key_paths(ss.str()), "manifest_traffic_v9.keys");
}

TEST(ManifestSchemaTest, SchemaVersionIsDeclared) {
  std::ostringstream ss;
  core::report::write_json(ss, quick_trial());
  EXPECT_NE(ss.str().find("\"schema_version\": " +
                          std::to_string(core::report::kManifestSchemaVersion)),
            std::string::npos);
}

TEST(JsonWriterTest, EscapesStringsAndNonFiniteDoubles) {
  std::ostringstream ss;
  core::JsonWriter w{ss};
  w.begin_object();
  w.field("quote\"back\\slash", "line\nbreak\ttab");
  w.field("nan", std::nan(""));
  w.field("inf", std::numeric_limits<double>::infinity());
  w.end_object();
  EXPECT_EQ(ss.str(),
            "{\n  \"quote\\\"back\\\\slash\": \"line\\nbreak\\ttab\",\n"
            "  \"nan\": null,\n  \"inf\": null\n}");
  // And the escaped output still parses.
  EXPECT_TRUE(eblnet::testing::parse_json(ss.str()));
}
