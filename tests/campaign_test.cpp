// The content-addressed run cache and its batch call
// (core::campaign::RunCache, run_cached_trials). The load-bearing
// property is byte-identity: a cached TrialResult must reconstruct so
// exactly that every downstream artifact — trial manifests, sweep
// manifests — is byte-for-byte what a fresh simulation produces. On top
// of that sit the batch contracts (hit/miss partition of a sweep,
// superset sweeps simulating only new cells) and the corruption story
// (torn writes and foreign entries are detected, evicted and recomputed,
// never served).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign/run_cache.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/scenario_builder.hpp"
#include "temp_dir.hpp"

using namespace eblnet;
namespace campaign = core::campaign;
namespace fs = std::filesystem;

namespace {

/// A fast but non-trivial scenario: trial 1 shortened to 6 s with
/// metrics on, so delay samples, throughput series, CI blocks, gauges
/// and counters are all populated.
core::ScenarioConfig quick_config(std::uint64_t seed = 1) {
  return core::ScenarioBuilder::trial1()
      .duration(sim::Time::seconds(std::int64_t{6}))
      .metrics()
      .seed(seed)
      .build();
}

std::string trial_manifest(const core::TrialResult& r) {
  std::ostringstream ss;
  core::report::write_json(ss, r);
  return ss.str();
}

/// The store's single entry file (tests that plant exactly one).
fs::path only_entry(const fs::path& root) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(root))
    if (e.is_regular_file()) files.push_back(e.path());
  EXPECT_EQ(files.size(), 1u) << "expected exactly one cache entry under " << root;
  return files.empty() ? fs::path{} : files.front();
}

/// `seeds` x {500, 1000} B over quick_config(), seed slowest.
std::vector<core::TrialSpec> seed_sweep(std::uint64_t seeds) {
  std::vector<core::TrialSpec> specs;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    for (const std::size_t bytes : {500, 1000}) {
      core::ScenarioConfig cfg = quick_config(s);
      cfg.packet_bytes = bytes;
      specs.push_back({cfg, "seed=" + std::to_string(s) + "/bytes=" + std::to_string(bytes)});
    }
  }
  return specs;
}

}  // namespace

TEST(RunCacheTest, StoreThenLoadReconstructsByteIdentically) {
  eblnet::testing::TempDir tmp;
  campaign::RunCache cache{tmp.path()};
  const core::ScenarioConfig cfg = quick_config();

  const core::TrialResult fresh = core::run_trial(cfg, "round-trip");
  EXPECT_FALSE(cache.load(cfg, "round-trip"));  // cold
  cache.store(cfg, fresh);
  const auto cached = cache.load(cfg, "round-trip");
  ASSERT_TRUE(cached);

  // The strongest equivalence we can ask for: the full trial manifest —
  // config echo, every delay/throughput statistic, CI blocks, stopping-
  // distance assessment, metrics counters and gauges — is byte-identical.
  EXPECT_EQ(trial_manifest(*cached), trial_manifest(fresh));
  EXPECT_EQ(cached->name, "round-trip");
  EXPECT_EQ(cached->events_executed, fresh.events_executed);
}

TEST(RunCacheTest, NameIsCallerContextNotPartOfTheKey) {
  eblnet::testing::TempDir tmp;
  campaign::RunCache cache{tmp.path()};
  const core::ScenarioConfig cfg = quick_config();
  cache.store(cfg, core::run_trial(cfg, "first-name"));
  const auto renamed = cache.load(cfg, "second-name");
  ASSERT_TRUE(renamed);
  EXPECT_EQ(renamed->name, "second-name");
}

TEST(RunCacheTest, CountersTrackHitsMissesAndBytes) {
  eblnet::testing::TempDir tmp;
  campaign::RunCache cache{tmp.path()};
  const core::ScenarioConfig cfg = quick_config();

  EXPECT_FALSE(cache.load(cfg, "t"));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  cache.store(cfg, core::run_trial(cfg, "t"));
  EXPECT_GT(cache.bytes_written(), 0u);
  EXPECT_EQ(cache.bytes_read(), 0u);

  ASSERT_TRUE(cache.load(cfg, "t"));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.bytes_read(), cache.bytes_written());
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(RunCacheTest, TruncatedEntryIsEvictedAndRecomputed) {
  eblnet::testing::TempDir tmp;
  const core::ScenarioConfig cfg = quick_config();
  const core::TrialResult fresh = core::run_trial(cfg, "torn");
  {
    campaign::RunCache cache{tmp.path()};
    cache.store(cfg, fresh);
  }

  // Simulate a kill mid-write that somehow landed at the final path
  // (e.g. a torn page after a crashed rename): truncate to half.
  const fs::path entry = only_entry(tmp.path());
  const auto full_size = fs::file_size(entry);
  fs::resize_file(entry, full_size / 2);

  campaign::RunCache cache{tmp.path()};
  EXPECT_FALSE(cache.load(cfg, "torn"));  // detected, not served
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_FALSE(fs::exists(entry)) << "corrupt entry must be unlinked";

  // Recompute and commit cleanly; the second load is a real hit again.
  cache.store(cfg, fresh);
  const auto reloaded = cache.load(cfg, "torn");
  ASSERT_TRUE(reloaded);
  EXPECT_EQ(trial_manifest(*reloaded), trial_manifest(fresh));
}

TEST(RunCacheTest, InProgressTempFileIsInvisible) {
  // The atomic-rename protocol: a writer killed before rename leaves
  // only a .tmp.<pid> file, which a reader never considers.
  eblnet::testing::TempDir tmp;
  campaign::RunCache cache{tmp.path()};
  const core::ScenarioConfig cfg = quick_config();
  const fs::path entry = cache.entry_path(cache.key_for(cfg));
  fs::create_directories(entry.parent_path());
  std::ofstream{entry.string() + ".tmp.9999"} << "{ \"partial\": ";

  EXPECT_FALSE(cache.load(cfg, "t"));
  EXPECT_EQ(cache.evictions(), 0u);  // a temp file is absence, not corruption
}

TEST(RunCacheTest, ForeignFingerprintEntryIsEvicted) {
  // A cache directory copied from a different binary: the entry sits at
  // the right path for OUR key only if the key was forged (or the dir
  // was hand-assembled), and its recorded fingerprint gives it away.
  eblnet::testing::TempDir tmp;
  const core::ScenarioConfig cfg = quick_config();

  campaign::RunCache theirs{tmp.path()};
  theirs.set_fingerprint("build-a");
  theirs.store(cfg, core::run_trial(cfg, "foreign"));

  campaign::RunCache ours{tmp.path()};
  ours.set_fingerprint("build-b");
  // Plant their entry at our address.
  const fs::path ours_path = ours.entry_path(ours.key_for(cfg));
  fs::create_directories(ours_path.parent_path());
  fs::copy_file(theirs.entry_path(theirs.key_for(cfg)), ours_path);

  EXPECT_FALSE(ours.load(cfg, "foreign"));
  EXPECT_EQ(ours.evictions(), 1u);
  EXPECT_FALSE(fs::exists(ours_path));
}

TEST(RunCacheTest, TamperedCompletionMarkerIsEvicted) {
  eblnet::testing::TempDir tmp;
  const core::ScenarioConfig cfg = quick_config();
  {
    campaign::RunCache cache{tmp.path()};
    cache.store(cfg, core::run_trial(cfg, "tamper"));
  }
  const fs::path entry = only_entry(tmp.path());
  std::string text;
  {
    std::ifstream in{entry};
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const auto pos = text.rfind("\"complete\": true");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 16, "\"complete\": null");
  std::ofstream{entry} << text;

  campaign::RunCache cache{tmp.path()};
  EXPECT_FALSE(cache.load(cfg, "tamper"));
  EXPECT_EQ(cache.evictions(), 1u);
}

namespace {

// An entry whose integer field holds a number that is not an integer
// token (here an exponent literal) is corrupt: evicted and re-simulated,
// never read through a conversion. Set `key`'s value, at its first
// occurrence after `anchor`, to `value`. (At -O2 a plain cast read 1e20
// events as 0 and served the entry.)
void expect_edit_is_evicted(const std::string& anchor, const std::string& key,
                            const std::string& value) {
  eblnet::testing::TempDir tmp;
  const core::ScenarioConfig cfg = quick_config();
  const core::TrialResult fresh = core::run_trial(cfg, "edited");
  {
    campaign::RunCache cache{tmp.path()};
    cache.store(cfg, fresh);
  }
  const fs::path entry = only_entry(tmp.path());
  std::string text;
  {
    std::ifstream in{entry};
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const std::string field = "\"" + key + "\": ";
  const auto pos = text.find(field, text.find(anchor));
  ASSERT_NE(pos, std::string::npos) << key;
  const auto begin = pos + field.size();
  text.replace(begin, text.find_first_of(",\n", begin) - begin, value);
  std::ofstream{entry} << text;

  campaign::RunCache cache{tmp.path()};
  EXPECT_FALSE(cache.load(cfg, "edited")) << key << " = " << value;
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(fs::exists(entry));
  const std::vector<core::TrialResult> rerun =
      campaign::run_cached_trials(cache, std::vector<core::TrialSpec>{{cfg, "edited"}});
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(rerun.front().events_executed, fresh.events_executed);
  EXPECT_TRUE(fs::exists(entry));
}

}  // namespace

TEST(RunCacheTest, ExponentCacheSchemaIsEvicted) {
  expect_edit_is_evicted("{", "cache_schema", "1e300");
}

TEST(RunCacheTest, ExponentRawEventCountIsEvicted) {
  expect_edit_is_evicted("\"raw\": {", "events_executed", "1e20");
}

TEST(RunCacheTest, DifferentSeedsGetDifferentEntries) {
  eblnet::testing::TempDir tmp;
  campaign::RunCache cache{tmp.path()};
  const core::ScenarioConfig one = quick_config(1);
  const core::ScenarioConfig two = quick_config(2);
  cache.store(one, core::run_trial(one, "s1"));
  EXPECT_FALSE(cache.load(two, "s2")) << "seed 2 must not hit seed 1's entry";
  const auto hit = cache.load(one, "s1");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->config.seed, 1u);
}

TEST(CampaignRunnerTest, CachedTrialsMatchUncachedByteForByte) {
  eblnet::testing::TempDir tmp;
  std::vector<core::TrialSpec> specs;
  for (std::uint64_t s = 1; s <= 3; ++s)
    specs.push_back({quick_config(s), "seed-" + std::to_string(s)});

  const std::vector<core::TrialResult> plain = core::Runner{}.run_trials(specs);

  campaign::RunCache cache{tmp.path()};
  const std::vector<core::TrialResult> cold = campaign::run_cached_trials(cache, specs);
  const std::vector<core::TrialResult> warm = campaign::run_cached_trials(cache, specs);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 3u);

  ASSERT_EQ(cold.size(), plain.size());
  ASSERT_EQ(warm.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(trial_manifest(cold[i]), trial_manifest(plain[i])) << "cold trial " << i;
    EXPECT_EQ(trial_manifest(warm[i]), trial_manifest(plain[i])) << "warm trial " << i;
  }

  // And the sweep-level manifest (what table_confidence_seeds writes
  // under --cache) is byte-identical too.
  std::ostringstream a, b;
  core::report::write_sweep_json(a, "equiv", plain);
  core::report::write_sweep_json(b, "equiv", warm);
  EXPECT_EQ(a.str(), b.str());
}

TEST(CampaignRunnerTest, SupersetSweepSimulatesOnlyNewCells) {
  eblnet::testing::TempDir tmp;

  {
    campaign::RunCache cache{tmp.path()};
    campaign::run_cached_trials(cache, seed_sweep(2));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 4u);  // 2 seeds x 2 packet sizes
  }
  {
    // The superset adds one seed: of its 6 cells, exactly the 2 new ones
    // are simulated.
    campaign::RunCache cache{tmp.path()};
    campaign::run_cached_trials(cache, seed_sweep(3));
    EXPECT_EQ(cache.hits(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
  }
  {
    // Fully warm now.
    campaign::RunCache cache{tmp.path()};
    campaign::run_cached_trials(cache, seed_sweep(3));
    EXPECT_EQ(cache.hits(), 6u);
    EXPECT_EQ(cache.misses(), 0u);
  }
}
