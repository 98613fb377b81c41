#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "core/campaign/scenario_key.hpp"
#include "core/trial.hpp"
#include "sim/metrics.hpp"

namespace eblnet::core::campaign {

/// On-disk content-addressed store of finished trial results:
/// `<root>/<4-hex prefix>/<32-hex key>.json`, one immutable entry per
/// (canonical scenario, binary fingerprint). Determinism makes a result
/// a pure function of that pair, so an entry never
/// needs updating — only creating (atomically) or evicting (when
/// corrupt).
///
/// Each entry holds an index header (key, fingerprint, seed),
/// the schema-v4 trial manifest for humans and tooling, and a `raw`
/// block with the exact samples, counters and series needed to
/// reconstruct the TrialResult bit-identically: summaries recomputed
/// from the restored samples, and manifests re-rendered from the
/// restored result, are byte-for-byte what the original run produced.
///
/// Commit protocol: serialize to `<entry>.tmp.<pid>`, flush, then
/// std::filesystem::rename — readers only ever see absent or complete
/// files on POSIX. A load still re-parses the whole document and checks
/// the trailing `"complete": true` marker, so a torn write (kill-mid-
/// write, full disk) is detected, counted as an eviction, unlinked, and
/// the cell recomputed.
///
/// Hit/miss/eviction/byte counters are kept in a sim::MetricsRegistry
/// ("node" 0 = the cache itself, layer "campaign") so campaign runs
/// surface cache behaviour through the same manifest machinery as every
/// other subsystem.
///
/// Not thread-safe: one RunCache per orchestrating thread (the campaign
/// runner does all cache I/O from the coordinating thread; only the
/// simulations themselves fan out).
class RunCache {
 public:
  /// `root` is created lazily on the first store.
  explicit RunCache(std::filesystem::path root);

  const std::filesystem::path& root() const noexcept { return root_; }

  /// The binary fingerprint folded into every key (defaults to
  /// campaign::build_id()). Tests pin a fixed string so goldens and
  /// fixtures survive rebuilds.
  void set_fingerprint(std::string fp) { fingerprint_ = std::move(fp); }
  const std::string& fingerprint() const noexcept { return fingerprint_; }

  /// The on-disk key for `cfg` under the current fingerprint.
  Key key_for(const ScenarioConfig& cfg) const;
  std::filesystem::path entry_path(const Key& key) const;

  /// Look up `cfg`. On a hit, returns the reconstructed
  /// TrialResult carrying `name` (the name is caller context, not part
  /// of the key). On a miss — absent, torn, corrupt or foreign entry —
  /// returns nullopt; invalid files are evicted (unlinked) first so the
  /// recomputed result can be stored cleanly.
  std::optional<TrialResult> load(const ScenarioConfig& cfg, std::string name);

  /// Atomically commit a finished trial for `cfg`. `r` must be
  /// the result of running exactly `cfg` (the caller's config is
  /// re-serialized on load, so a mismatched result would be served under
  /// the wrong config).
  void store(const ScenarioConfig& cfg, const TrialResult& r);

  // --- counters (sim::Counter::kCampaignCache*) ---
  std::uint64_t hits() const noexcept;
  std::uint64_t misses() const noexcept;
  std::uint64_t evictions() const noexcept;
  sim::MetricsSnapshot metrics() const { return metrics_.snapshot(); }

 private:
  std::filesystem::path root_;
  std::string fingerprint_;
  sim::MetricsRegistry metrics_;
};

}  // namespace eblnet::core::campaign
