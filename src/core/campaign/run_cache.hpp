#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/campaign/scenario_key.hpp"
#include "core/runner.hpp"
#include "core/trial.hpp"

namespace eblnet::core::campaign {

/// On-disk content-addressed store of finished trial results:
/// `<root>/<4-hex prefix>/<32-hex key>.json`, one immutable entry per
/// (canonical scenario, binary fingerprint). Determinism makes a result
/// a pure function of that pair, so an entry never
/// needs updating — only creating (atomically) or evicting (when
/// corrupt).
///
/// Each entry holds an index header (key, fingerprint, seed), the trial
/// manifest (at report::kManifestSchemaVersion) for humans and tooling,
/// and a `raw` block with the exact samples, counters and series needed to
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
/// Not thread-safe: one RunCache per orchestrating thread
/// (run_cached_trials does all cache I/O from the calling thread; only
/// the simulations themselves fan out).
class RunCache {
 public:
  /// `root` is created lazily on the first store.
  explicit RunCache(std::filesystem::path root);

  const std::filesystem::path& root() const noexcept { return root_; }

  /// The binary fingerprint folded into every key (defaults to
  /// campaign::build_id()). Tests pin a fixed string so goldens and
  /// fixtures survive rebuilds.
  void set_fingerprint(std::string fp) { fingerprint_ = std::move(fp); }

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
  /// the wrong config). Throws std::runtime_error, its message prefixed
  /// "RunCache: ", when the entry cannot be written.
  void store(const ScenarioConfig& cfg, const TrialResult& r);

  // --- counters over this instance's lifetime ---
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::uint64_t bytes_read() const noexcept { return bytes_read_; }
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }

 private:
  std::filesystem::path root_;
  std::string fingerprint_;
  std::uint64_t hits_{0};           ///< lookups served from the on-disk store
  std::uint64_t misses_{0};         ///< lookups that had to simulate
  std::uint64_t evictions_{0};      ///< corrupt/partial/foreign entries removed
  std::uint64_t bytes_read_{0};     ///< entry bytes deserialized on hits
  std::uint64_t bytes_written_{0};  ///< entry bytes committed on stores
};

/// Cached equivalent of core::Runner{jobs}.run_trials: serve hits, run
/// only the misses on the runner's pool, and return results in spec
/// order — byte-identical to the uncached call. Each miss is committed
/// in spec order as soon as its trial finishes, so an interrupted batch
/// keeps its finished prefix. A failed store propagates.
std::vector<TrialResult> run_cached_trials(RunCache& cache, std::span<const TrialSpec> specs,
                                           unsigned jobs = 0);

}  // namespace eblnet::core::campaign
