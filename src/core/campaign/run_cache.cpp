#include "core/campaign/run_cache.hpp"

#include <unistd.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/campaign/build_id.hpp"
#include "core/campaign/json_value.hpp"
#include "core/json_writer.hpp"
#include "core/report.hpp"

namespace eblnet::core::campaign {

namespace {

/// Bumped whenever the entry layout changes. The binary fingerprint in
/// the key already invalidates entries across source changes; this is a
/// belt-and-braces marker for hand-migrated cache directories.
constexpr std::int64_t kCacheSchemaVersion = 1;

void write_samples(JsonWriter& w, const std::vector<trace::DelaySample>& samples) {
  w.begin_array();
  for (const auto& s : samples) {
    w.begin_array();
    w.value(static_cast<std::uint64_t>(s.src));
    w.value(static_cast<std::uint64_t>(s.dst));
    w.value(s.seq);
    w.value(s.sent.ns());
    w.value(s.received.ns());
    w.end_array();
  }
  w.end_array();
}

void write_series(JsonWriter& w, const stats::TimeSeries& series) {
  w.begin_array();
  for (const auto& p : series.points()) {
    w.begin_array();
    w.value(p.t.ns());
    w.value(p.value);
    w.end_array();
  }
  w.end_array();
}

void write_ci(JsonWriter& w, const stats::ConfidenceInterval& ci) {
  w.begin_object();
  w.field("mean", ci.mean);
  w.field("half_width", ci.half_width);
  w.field("confidence", ci.confidence);
  w.field("samples", ci.samples);
  w.end_object();
}

std::string serialize_entry(const Key& key, const Key& scenario, std::string_view fingerprint,
                            const TrialResult& r) {
  std::ostringstream os;
  JsonWriter w{os};
  w.begin_object();
  // Index header: everything a cache browser needs without reading on.
  w.field("cache_schema", kCacheSchemaVersion);
  w.field("kind", "eblnet.cache_entry");
  w.field("key", key.hex());
  w.field("scenario_key", scenario.hex());
  w.field("fingerprint", fingerprint);
  w.field("seed", r.config.seed);

  // The human/tooling view: the ordinary trial manifest, at
  // report::kManifestSchemaVersion.
  w.key("trial");
  report::write_trial_json(w, r);

  // The reload view: exact raw artefacts (integers and 17-digit doubles
  // round-trip losslessly through the writer + parser pair).
  w.key("raw");
  w.begin_object();
  w.field("events_executed", r.events_executed);
  w.field("p1_initial_packet_delay_s", r.p1_initial_packet_delay_s);
  w.field("ifq_drops", r.ifq_drops);
  w.field("phy_collisions", r.phy_collisions);
  w.field("mac_retry_drops", r.mac_retry_drops);
  w.field("routing_control_sends", r.routing_control_sends);
  w.field("data_frame_sends", r.data_frame_sends);

  w.key("delay");
  w.begin_object();
  w.key("p1_middle");
  write_samples(w, r.p1_middle);
  w.key("p1_trailing");
  write_samples(w, r.p1_trailing);
  w.key("p2_middle");
  write_samples(w, r.p2_middle);
  w.key("p2_trailing");
  write_samples(w, r.p2_trailing);
  w.end_object();

  w.key("throughput");
  w.begin_object();
  w.key("p1");
  write_series(w, r.p1_throughput);
  w.key("p2");
  write_series(w, r.p2_throughput);
  w.key("p1_ci");
  write_ci(w, r.p1_throughput_ci);
  w.key("p2_ci");
  write_ci(w, r.p2_throughput_ci);
  w.end_object();

  const TrialResult::Resilience& rz = r.resilience;
  w.key("resilience");
  w.begin_object();
  w.field("faults_enabled", rz.faults_enabled);
  w.field("time_to_reroute_s", rz.time_to_reroute_s);
  w.field("delivery_ratio", rz.delivery_ratio);
  w.field("delivery_ratio_during_outage", rz.delivery_ratio_during_outage);
  w.field("delivery_ratio_after_outage", rz.delivery_ratio_after_outage);
  w.field("outage_start_s", rz.outage_start_s);
  w.field("outage_end_s", rz.outage_end_s);
  w.field("crashes", rz.crashes);
  w.field("injected_drops", rz.injected_drops);
  w.field("jam_bursts", rz.jam_bursts);
  w.end_object();

  const sim::MetricsSnapshot& m = r.metrics;
  w.key("metrics");
  w.begin_object();
  w.field("enabled", m.enabled);
  w.field("nodes", static_cast<std::uint64_t>(m.nodes));
  w.key("counters");
  w.begin_array();
  for (const std::uint64_t v : m.counters) w.value(v);
  w.end_array();
  w.key("gauges");
  w.begin_array();
  for (const sim::GaugeStat& g : m.gauges) {
    w.begin_array();
    w.value(g.count);
    w.value(g.sum);
    w.value(g.min);
    w.value(g.max);
    w.end_array();
  }
  w.end_array();
  w.end_object();

  w.end_object();  // raw

  // Last field by design: a truncated write cannot carry it.
  w.field("complete", true);
  w.end_object();
  os << '\n';
  return std::move(os).str();
}

// Integer fields must hold integer tokens in their type's range. Anything
// else (a fraction, an exponent literal such as 1e300, a number past the
// range, a negative count) marks the entry corrupt, so it is evicted
// instead of read through a saturating conversion.
bool read_u64(const JsonValue* v, std::uint64_t& out) {
  if (v == nullptr || v->kind() != JsonValue::Kind::kU64) return false;
  out = v->as_u64();
  return true;
}

bool read_i64(const JsonValue* v, std::int64_t& out) {
  if (v == nullptr) return false;
  const bool fits =
      v->kind() == JsonValue::Kind::kI64 ||
      (v->kind() == JsonValue::Kind::kU64 &&
       v->as_u64() <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()));
  if (!fits) return false;
  out = v->as_i64();
  return true;
}

bool read_time(const JsonValue* v, sim::Time& out) {
  std::int64_t ns = 0;
  if (!read_i64(v, ns)) return false;
  out = sim::Time::nanoseconds(ns);
  return true;
}

bool read_samples(const JsonValue* v, std::vector<trace::DelaySample>& out) {
  if (v == nullptr || !v->is_array()) return false;
  out.clear();
  out.reserve(v->as_array().size());
  for (const JsonValue& row : v->as_array()) {
    if (!row.is_array() || row.as_array().size() != 5) return false;
    const auto& f = row.as_array();
    trace::DelaySample s;
    std::uint64_t src = 0, dst = 0;
    if (!read_u64(&f[0], src) || !read_u64(&f[1], dst) || !read_u64(&f[2], s.seq) ||
        !read_time(&f[3], s.sent) || !read_time(&f[4], s.received))
      return false;
    s.src = static_cast<net::NodeId>(src);
    s.dst = static_cast<net::NodeId>(dst);
    out.push_back(s);
  }
  return true;
}

bool read_series(const JsonValue* v, stats::TimeSeries& out) {
  if (v == nullptr || !v->is_array()) return false;
  out = stats::TimeSeries{};
  for (const JsonValue& row : v->as_array()) {
    if (!row.is_array() || row.as_array().size() != 2) return false;
    const auto& f = row.as_array();
    sim::Time t;
    if (!read_time(&f[0], t)) return false;
    out.add(t, f[1].as_double());
  }
  return true;
}

bool read_ci(const JsonValue* v, stats::ConfidenceInterval& ci) {
  if (v == nullptr || !v->is_object()) return false;
  const JsonValue* mean = v->find("mean");
  const JsonValue* hw = v->find("half_width");
  const JsonValue* conf = v->find("confidence");
  if (mean == nullptr || hw == nullptr || conf == nullptr) return false;
  ci.mean = mean->as_double();
  ci.half_width = hw->as_double();
  ci.confidence = conf->as_double();
  return read_u64(v->find("samples"), ci.samples);
}

/// Reconstruct the TrialResult from a parsed, validated entry. Returns
/// false on any structural mismatch (treated as corruption upstream).
bool reconstruct(const JsonValue& entry, const ScenarioConfig& cfg, std::string name,
                 TrialResult& out) {
  const JsonValue* raw = entry.find("raw");
  if (raw == nullptr || !raw->is_object()) return false;

  out = TrialResult{};
  out.name = std::move(name);
  out.config = cfg;

  const auto u64_field = [&](const char* key, std::uint64_t& dst) {
    return read_u64(raw->find(key), dst);
  };
  if (!u64_field("events_executed", out.events_executed)) return false;
  if (!u64_field("ifq_drops", out.ifq_drops)) return false;
  if (!u64_field("phy_collisions", out.phy_collisions)) return false;
  if (!u64_field("mac_retry_drops", out.mac_retry_drops)) return false;
  if (!u64_field("routing_control_sends", out.routing_control_sends)) return false;
  if (!u64_field("data_frame_sends", out.data_frame_sends)) return false;
  const JsonValue* initial = raw->find("p1_initial_packet_delay_s");
  if (initial == nullptr) return false;
  out.p1_initial_packet_delay_s = initial->as_double();

  const JsonValue* delay = raw->find("delay");
  if (delay == nullptr) return false;
  if (!read_samples(delay->find("p1_middle"), out.p1_middle)) return false;
  if (!read_samples(delay->find("p1_trailing"), out.p1_trailing)) return false;
  if (!read_samples(delay->find("p2_middle"), out.p2_middle)) return false;
  if (!read_samples(delay->find("p2_trailing"), out.p2_trailing)) return false;

  const JsonValue* tput = raw->find("throughput");
  if (tput == nullptr) return false;
  if (!read_series(tput->find("p1"), out.p1_throughput)) return false;
  if (!read_series(tput->find("p2"), out.p2_throughput)) return false;
  if (!read_ci(tput->find("p1_ci"), out.p1_throughput_ci)) return false;
  if (!read_ci(tput->find("p2_ci"), out.p2_throughput_ci)) return false;

  const JsonValue* rz = raw->find("resilience");
  if (rz == nullptr || !rz->is_object()) return false;
  const auto dbl = [&](const char* key, double& dst) {
    const JsonValue* v = rz->find(key);
    if (v == nullptr) return false;
    dst = v->as_double();
    return true;
  };
  const JsonValue* fe = rz->find("faults_enabled");
  if (fe == nullptr || !fe->is_bool()) return false;
  out.resilience.faults_enabled = fe->as_bool();
  if (!dbl("time_to_reroute_s", out.resilience.time_to_reroute_s)) return false;
  if (!dbl("delivery_ratio", out.resilience.delivery_ratio)) return false;
  if (!dbl("delivery_ratio_during_outage", out.resilience.delivery_ratio_during_outage))
    return false;
  if (!dbl("delivery_ratio_after_outage", out.resilience.delivery_ratio_after_outage))
    return false;
  if (!dbl("outage_start_s", out.resilience.outage_start_s)) return false;
  if (!dbl("outage_end_s", out.resilience.outage_end_s)) return false;
  if (!read_u64(rz->find("crashes"), out.resilience.crashes) ||
      !read_u64(rz->find("injected_drops"), out.resilience.injected_drops) ||
      !read_u64(rz->find("jam_bursts"), out.resilience.jam_bursts))
    return false;

  const JsonValue* m = raw->find("metrics");
  if (m == nullptr || !m->is_object()) return false;
  const JsonValue* enabled = m->find("enabled");
  const JsonValue* counters = m->find("counters");
  const JsonValue* gauges = m->find("gauges");
  std::uint64_t nodes = 0;
  if (enabled == nullptr || !enabled->is_bool() || !read_u64(m->find("nodes"), nodes) ||
      counters == nullptr || !counters->is_array() || gauges == nullptr || !gauges->is_array())
    return false;
  sim::MetricsSnapshot& ms = out.metrics;
  ms.enabled = enabled->as_bool();
  ms.nodes = static_cast<std::uint32_t>(nodes);
  // A counter-table shape mismatch means the entry predates a schema
  // change that slipped past the fingerprint (hand-copied directory);
  // reject it rather than serve shifted counters.
  if (counters->as_array().size() != ms.nodes * sim::kCounterCount) return false;
  if (gauges->as_array().size() != ms.nodes * sim::kGaugeCount) return false;
  ms.counters.reserve(counters->as_array().size());
  for (const JsonValue& v : counters->as_array()) {
    std::uint64_t count = 0;
    if (!read_u64(&v, count)) return false;
    ms.counters.push_back(count);
  }
  ms.gauges.reserve(gauges->as_array().size());
  for (const JsonValue& g : gauges->as_array()) {
    if (!g.is_array() || g.as_array().size() != 4) return false;
    const auto& f = g.as_array();
    sim::GaugeStat stat;
    if (!read_u64(&f[0], stat.count)) return false;
    stat.sum = f[1].as_double();
    stat.min = f[2].as_double();
    stat.max = f[3].as_double();
    ms.gauges.push_back(stat);
  }
  return true;
}

}  // namespace

RunCache::RunCache(std::filesystem::path root)
    : root_{std::move(root)}, fingerprint_{build_id()} {}

Key RunCache::key_for(const ScenarioConfig& cfg) const {
  return mix_fingerprint(scenario_key(cfg), fingerprint_);
}

std::filesystem::path RunCache::entry_path(const Key& key) const {
  const std::string hex = key.hex();
  return root_ / hex.substr(0, 4) / (hex + ".json");
}

std::optional<TrialResult> RunCache::load(const ScenarioConfig& cfg, std::string name) {
  const Key key = key_for(cfg);
  const std::filesystem::path path = entry_path(key);

  std::string text;
  {
    std::ifstream in{path, std::ios::binary};
    if (!in) {
      ++misses_;
      return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = std::move(ss).str();
  }

  const auto evict = [&] {
    std::error_code ec;
    std::filesystem::remove(path, ec);  // best effort; a locked file just stays
    ++evictions_;
    ++misses_;
  };

  const std::optional<JsonValue> doc = parse_json(text);
  if (!doc || !doc->is_object()) {
    evict();
    return std::nullopt;
  }
  const JsonValue* complete = doc->find("complete");
  const JsonValue* kind = doc->find("kind");
  const JsonValue* stored_key = doc->find("key");
  const JsonValue* fp = doc->find("fingerprint");
  std::int64_t schema = 0;
  if (complete == nullptr || !complete->is_bool() || !complete->as_bool() ||  //
      kind == nullptr || !kind->is_string() || kind->as_string() != "eblnet.cache_entry" ||
      !read_i64(doc->find("cache_schema"), schema) || schema != kCacheSchemaVersion ||  //
      stored_key == nullptr || !stored_key->is_string() || stored_key->as_string() != key.hex() ||
      fp == nullptr || !fp->is_string() || fp->as_string() != fingerprint_) {
    evict();
    return std::nullopt;
  }

  TrialResult r;
  if (!reconstruct(*doc, cfg, std::move(name), r)) {
    evict();
    return std::nullopt;
  }
  ++hits_;
  bytes_read_ += text.size();
  return r;
}

void RunCache::store(const ScenarioConfig& cfg, const TrialResult& r) {
  const Key scenario = scenario_key(cfg);
  const Key key = mix_fingerprint(scenario, fingerprint_);
  const std::filesystem::path path = entry_path(key);
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  if (ec) {
    throw std::runtime_error{"RunCache: cannot create " + path.parent_path().string() + ": " +
                             ec.message()};
  }

  const std::string text = serialize_entry(key, scenario, fingerprint_, r);

  // Write-to-temp + rename: a reader never observes a half-written
  // entry under the final name.
  const std::filesystem::path tmp =
      path.parent_path() / (path.filename().string() + ".tmp." + std::to_string(::getpid()));
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw std::runtime_error{"RunCache: cannot open " + tmp.string() + " for writing"};
    out << text;
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error{"RunCache: write failed for " + tmp.string()};
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error{"RunCache: cannot commit " + path.string() + ": " + ec.message()};
  }
  bytes_written_ += text.size();
}

std::vector<TrialResult> run_cached_trials(RunCache& cache, std::span<const TrialSpec> specs,
                                           unsigned jobs) {
  // Partition: one cache probe per spec, in order. Hits come back
  // reconstructed; only the misses touch the thread pool.
  std::vector<TrialResult> results(specs.size());
  std::vector<std::size_t> miss_index;  // spec index of the i-th miss
  std::vector<TrialSpec> misses;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (std::optional<TrialResult> hit = cache.load(specs[i].config, specs[i].name)) {
      results[i] = std::move(*hit);
    } else {
      miss_index.push_back(i);
      misses.push_back(specs[i]);
    }
  }

  Runner::AsyncTrials batch = Runner{jobs}.start_trials(std::move(misses));
  for (std::size_t m = 0; m < miss_index.size(); ++m) {
    const std::size_t i = miss_index[m];
    results[i] = batch.futures[m].get();
    cache.store(specs[i].config, results[i]);
  }
  return results;
}

}  // namespace eblnet::core::campaign
