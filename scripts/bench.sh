#!/usr/bin/env sh
# Timing runs: build Release (-O2 -DNDEBUG) into its own build dir, then
# run the timing harnesses and the component micro-benchmarks. Debug or
# RelWithDebInfo numbers are not comparable; this script exists so every
# recorded number comes from the same optimized configuration.
#
# Modes:
#   bench.sh              parallel-sweep harness (perf_sweep) + scheduler/
#                         packet micro-benchmarks
#   bench.sh --scale      large-N spatial-grid harness (perf_scale,
#                         including the N = 1000 acceptance point) +
#                         channel-broadcast micro-benchmark
#   bench.sh --resilience safety-under-failure sweep (resilience_sweep):
#                         the paper trials under a crash/blackout/PER
#                         fault grid
#   bench.sh --traffic    closed-loop car-following sweep (traffic_sweep):
#                         IDM shockwave vs V2V market penetration
#   bench.sh --campaign   content-addressed run-cache sweep
#                         (campaign_sweep full): cold vs warm vs
#                         partially-warm timings over a 64-cell grid
#   bench.sh --beacon     V2X intersection beaconing sweep
#                         (intersection_beacon): EDCA beacon rate x
#                         vehicle density under corner NLOS blockage
#   bench.sh --prune N    no benches: trim BENCH_sweep.json to the newest
#                         N entries per kind, then exit
#
# Each harness run is APPENDED to the BENCH_sweep.json history array (the
# shell stamps it with the run date and the host's core count — the C++
# harness stays deterministic), so the perf trajectory across PRs stays
# visible in one file. Entries are distinguished by their "kind" field
# ("eblnet.perf", "eblnet.perf_scale", "eblnet.resilience",
# "eblnet.traffic", "eblnet.campaign", "eblnet.beacon"). A legacy
# single-object BENCH_sweep.json is wrapped into a one-entry array on
# first contact. After each append the newest entry's median
# events/s is compared against the most recent previous entry of the
# same kind taken on the SAME host core count with the SAME benchmark
# configuration (a fingerprint of the entry minus its volatile timing
# fields) — numbers from a different machine or a reshaped benchmark are
# not comparable and are skipped, not false-alarmed on. A drop of more
# than 5% prints a REGRESSION warning (the run is still recorded — the
# warning is the signal).
#
# EBLNET_JOBS=<n> overrides the parallel job count used by the sweep.
set -eu

cd "$(dirname "$0")/.."
BUILD=build-release
HIST=BENCH_sweep.json

MODE=sweep
[ "${1:-}" = "--scale" ] && MODE=scale
[ "${1:-}" = "--resilience" ] && MODE=resilience
[ "${1:-}" = "--traffic" ] && MODE=traffic
[ "${1:-}" = "--campaign" ] && MODE=campaign
[ "${1:-}" = "--beacon" ] && MODE=beacon

# --prune N: history maintenance only — cap each kind's entry list at the
# newest N and exit without building or running anything.
if [ "${1:-}" = "--prune" ]; then
  N="${2:?usage: bench.sh --prune N}"
  python3 - "$HIST" "$N" <<'EOF'
import json, sys

path, keep = sys.argv[1], int(sys.argv[2])
if keep < 1:
    sys.exit("--prune expects N >= 1")
hist = json.load(open(path))
if isinstance(hist, dict):
    hist = [hist]
counts = {}
kept = []
for entry in reversed(hist):  # newest last -> walk newest first
    kind = entry.get("kind", "")
    counts[kind] = counts.get(kind, 0) + 1
    if counts[kind] <= keep:
        kept.append(entry)
kept.reverse()
with open(path, "w") as f:
    json.dump(kept, f, indent=2)
    f.write("\n")
print(f"pruned {path}: {len(hist)} -> {len(kept)} entries "
      f"(newest {keep} per kind)")
EOF
  exit 0
fi

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD"

RUN=$(mktemp)
trap 'rm -f "$RUN"' EXIT

# append_run <run-json>: stamp the harness output and push it onto the
# history array, then compare its median events/s against the previous
# entry of the same kind (paired-run regression check).
append_run() {
  # Migrate a pre-history file (one bare object) into a one-entry array.
  if [ -f "$HIST" ] && [ "$(head -c1 "$HIST")" = "{" ]; then
    { printf '[\n'; cat "$HIST"; printf ']\n'; } > "$HIST.tmp"
    mv "$HIST.tmp" "$HIST"
  fi

  STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)
  NPROC=$(nproc 2> /dev/null || echo 0)
  if [ ! -f "$HIST" ]; then
    printf '[\n' > "$HIST"
  else
    # Drop the closing ']' and separate the new entry from the previous one.
    sed -i '$d' "$HIST"
    printf ',\n' >> "$HIST"
  fi
  # The run file is a pretty-printed object whose first line is '{': re-emit
  # it with the timestamp and host core count injected as the first fields.
  { printf '{\n  "timestamp": "%s",\n  "host_nproc": %s,\n' "$STAMP" "$NPROC"
    tail -n +2 "$1"; } >> "$HIST"
  printf ']\n' >> "$HIST"
  echo "appended run ($STAMP) to $HIST"

  # Paired-run check: median over every events_per_sec in the entry,
  # newest vs the most recent prior run of the same kind that is actually
  # comparable — same host core count and same benchmark configuration
  # (entries hashed with their volatile timing fields stripped; an entry
  # recorded before host_nproc stamping, or a reshaped benchmark, simply
  # finds no partner). Advisory only — never fails the run, but a silent
  # slowdown should at least not be silent.
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$HIST" <<'EOF' || true
import hashlib, json, statistics, sys

VOLATILE = {
    "timestamp", "host_nproc", "wall_s", "per_trial_ms", "events",
    "events_per_sec", "allocs", "allocs_per_event", "speedup",
    "warm_speedup", "bytes_read", "bytes_written", "rss_mb", "peak_rss_mb",
}

def strip(entry):
    if isinstance(entry, dict):
        return {k: strip(v) for k, v in entry.items() if k not in VOLATILE}
    if isinstance(entry, list):
        return [strip(v) for v in entry]
    return entry

def fingerprint(entry):
    text = json.dumps(strip(entry), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

def rates(entry, out):
    if isinstance(entry, dict):
        for k, v in entry.items():
            if k == "events_per_sec" and isinstance(v, (int, float)):
                out.append(float(v))
            else:
                rates(v, out)
    elif isinstance(entry, list):
        for v in entry:
            rates(v, out)
    return out

hist = json.load(open(sys.argv[1]))
newest = hist[-1]
kind = newest.get("kind", "")
nproc = newest.get("host_nproc")
fp = fingerprint(newest)
prior = [e for e in hist[:-1]
         if e.get("kind", "") == kind
         and e.get("host_nproc") == nproc
         and fingerprint(e) == fp]
if not prior:
    print(f"paired-run check [{kind}]: no comparable prior run "
          f"(host_nproc={nproc}, config {fp}) — baseline recorded")
else:
    new = statistics.median(rates(newest, []) or [0.0])
    old = statistics.median(rates(prior[-1], []) or [0.0])
    if old > 0 and new < 0.95 * old:
        print(f"REGRESSION WARNING [{kind}]: median events/s "
              f"{new:,.0f} is {100 * (1 - new / old):.1f}% below the "
              f"previous comparable run's {old:,.0f}")
    elif old > 0:
        print(f"paired-run check [{kind}]: median events/s {new:,.0f} "
              f"vs previous {old:,.0f} — ok")
EOF
  fi
}

if [ "$MODE" = "scale" ]; then
  echo "== perf_scale (spatial-grid channel vs flat broadcast loop) =="
  "$BUILD"/bench/perf_scale full --json "$RUN"
  append_run "$RUN"
elif [ "$MODE" = "resilience" ]; then
  echo "== resilience_sweep (paper trials under crash/blackout/PER faults) =="
  "$BUILD"/bench/resilience_sweep --json "$RUN"
  append_run "$RUN"
elif [ "$MODE" = "traffic" ]; then
  echo "== traffic_sweep (IDM shockwave vs V2V market penetration) =="
  "$BUILD"/bench/traffic_sweep --json "$RUN"
  append_run "$RUN"
elif [ "$MODE" = "campaign" ]; then
  echo "== campaign_sweep full (content-addressed run cache, 64-cell grid) =="
  "$BUILD"/bench/campaign_sweep full --json "$RUN"
  append_run "$RUN"
elif [ "$MODE" = "beacon" ]; then
  echo "== intersection_beacon (EDCA beacon rate x density under corner NLOS) =="
  "$BUILD"/bench/intersection_beacon --json "$RUN"
  append_run "$RUN"
else
  echo "== perf_sweep (serial vs parallel confidence sweep) =="
  "$BUILD"/bench/perf_sweep --json "$RUN"
  append_run "$RUN"
fi

echo
if [ "$MODE" = "resilience" ] || [ "$MODE" = "traffic" ] || [ "$MODE" = "campaign" ] ||
    [ "$MODE" = "beacon" ]; then
  : # no micro-benchmark counterpart; the sweep above is the whole story
elif [ "$MODE" = "scale" ]; then
  echo "== micro_components (channel broadcast hot path) =="
  "$BUILD"/bench/micro_components --benchmark_filter='Channel' \
      --benchmark_min_time=0.2
else
  echo "== micro_components (scheduler/packet hot paths) =="
  "$BUILD"/bench/micro_components --benchmark_filter='Scheduler|Packet' \
      --benchmark_min_time=0.2
fi
