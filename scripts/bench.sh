#!/usr/bin/env sh
# Timing runs. Every mode but --pair and --prune first builds Release
# (-O2 -DNDEBUG) into its own build dir: Debug or RelWithDebInfo numbers
# are not comparable, so every recorded number comes from the same
# optimized configuration.
#
# Modes:
#   bench.sh              scheduler/packet micro-benchmarks
#   bench.sh --pair <parent-tree> <change-tree>
#                         no build: time a change against its parent with
#                         alternating perfbench pairs (below)
#   bench.sh --scale      large-N spatial-grid harness (perf_scale full:
#                         the end-to-end highway table, including the
#                         N = 1000 acceptance point) + channel-broadcast
#                         micro-benchmark (the transmit path alone)
#   bench.sh --resilience safety-under-failure sweep (resilience_sweep):
#                         the paper trials under a crash/blackout/PER
#                         fault grid
#   bench.sh --traffic    closed-loop car-following sweep (traffic_sweep):
#                         IDM shockwave vs V2V market penetration +
#                         IDM-law micro-benchmark
#   bench.sh --beacon     V2X intersection beaconing sweep
#                         (intersection_beacon): EDCA beacon rate x
#                         vehicle density under corner NLOS blockage
#   bench.sh --prune N    no benches: trim BENCH_sweep.json to the newest
#                         N entries per kind, then exit
#
# --pair is the one way to time a change. Both trees must be repo roots
# with identical BENCHMARK.json and perfbench/ (exit 2 before anything
# runs otherwise); the workloads, run_seconds and end-to-end metrics with
# their bounds all come from BENCHMARK.json. Each workload runs ten pairs
# at seeds 1, 70001, 2, ..., 9. A run is `python3 perfbench/run.py
# --workload W --seed S --seconds <run_seconds> --trace 0` started in its
# tree; the parent goes first on even pairs, the change on odd ones. A
# run that exits non-zero or reports failed > 0, or a seed at which the
# two sides' fingerprints differ, stops the mode with exit 1 and nothing
# appended. Otherwise it prints one row per workload x metric: both
# medians and IQRs (statistics.quantiles(n=4)), the pairs the change wins,
# and a verdict:
#
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound
#   unresolved  the parent's IQR/median exceeds the bound, and not every
#               change run beats every parent run
#   gain        the change wins at least 9 of 10 pairs and the median gap
#               exceeds the parent's IQR
#   same        otherwise
#
# It then appends an "eblnet.pair" entry (host, each tree's commit with
# "+dirty" for uncommitted changes, seeds, every run's values and the
# table) and exits 1 if any verdict is worse.
#
# Each recorded run is APPENDED to the BENCH_sweep.json history array (the
# shell stamps it with the run date and the host's core count), so the
# perf trajectory across PRs stays visible in one file. Entries are
# distinguished by their "kind" field ("eblnet.pair", "eblnet.perf_scale",
# "eblnet.resilience", "eblnet.traffic", "eblnet.beacon"). A legacy
# single-object BENCH_sweep.json is wrapped into a one-entry array on
# first contact.
set -eu

CALLER=$(pwd)
cd "$(dirname "$0")/.."
BUILD=build-release
HIST=BENCH_sweep.json

RUN=$(mktemp)
trap 'rm -f "$RUN"' EXIT

# append_run <run-json>: stamp a run and push it onto the history array.
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
}

MODE=micro
case "${1:-}" in
  "") ;;
  --pair | --prune | --scale | --resilience | --traffic | --beacon)
    MODE=${1#--} ;;
  *)
    echo "usage: bench.sh [--pair <parent-tree> <change-tree> | --scale | --resilience |" >&2
    echo "                 --traffic | --beacon | --prune N]" >&2
    exit 2 ;;
esac

# --prune N: history maintenance only — cap each kind's entry list at the
# newest N and exit without building or running anything.
if [ "$MODE" = prune ]; then
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

if [ "$MODE" = pair ]; then
  if [ $# -ne 3 ]; then
    echo "usage: bench.sh --pair <parent-tree> <change-tree>" >&2
    exit 2
  fi
  STATUS=0
  python3 - "$CALLER" "$2" "$3" "$RUN" <<'EOF' || STATUS=$?
import json, os, platform, re, statistics, subprocess, sys

caller, parent_arg, change_arg, out_path = sys.argv[1:5]
SEEDS = [1, 70001, 2, 3, 4, 5, 6, 7, 8, 9]


def die(status, message):
    print(f"bench.sh --pair: {message}", file=sys.stderr)
    sys.exit(status)


def git(tree, *args):
    return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def repo_root(arg):
    path = os.path.realpath(os.path.join(caller, arg))
    try:
        top = os.path.realpath(git(path, "rev-parse", "--show-toplevel"))
    except (OSError, subprocess.CalledProcessError):
        top = None
    if top != path or not os.path.isfile(os.path.join(path, "BENCHMARK.json")):
        die(2, f"not a repo root with a BENCHMARK.json: {arg}")
    return path


def read(path):
    with open(path, "rb") as f:
        return f.read()


def perfbench_files(tree):
    base = os.path.join(tree, "perfbench")
    files = {}
    for d, dirs, names in os.walk(base):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        for name in names:
            path = os.path.join(d, name)
            files[os.path.relpath(path, base)] = read(path)
    return files


trees = {"parent": repo_root(parent_arg), "change": repo_root(change_arg)}
if read(os.path.join(trees["parent"], "BENCHMARK.json")) != \
        read(os.path.join(trees["change"], "BENCHMARK.json")):
    die(2, "the trees' BENCHMARK.json differ")
if perfbench_files(trees["parent"]) != perfbench_files(trees["change"]):
    die(2, "the trees' perfbench/ differ")

bench = json.loads(read(os.path.join(trees["parent"], "BENCHMARK.json")))
workloads = [w["name"] for w in bench["workloads"]]
seconds = bench["run_seconds"]
metrics = bench["end_to_end"]
commits = {side: git(tree, "rev-parse", "HEAD") +
           ("+dirty" if git(tree, "status", "--porcelain") else "")
           for side, tree in trees.items()}


def run(side, workload, seed):
    """One perfbench run: (fingerprint, {metric: value})."""
    proc = subprocess.run(["python3", "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=trees[side], stdout=subprocess.PIPE, text=True)
    where = f"{workload} seed {seed} ({side})"
    if proc.returncode != 0:
        die(1, f"{where} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"] > 0:
        die(1, f"{where} reported failed {result['failed']}/{result['attempted']}")
    fingerprint = re.search(r"fingerprint ([0-9a-f]+)", proc.stdout).group(1)
    return fingerprint, {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}


runs = {}
for workload in workloads:
    runs[workload] = []
    for i, seed in enumerate(SEEDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run(side, workload, seed) for side in order}
        if got["parent"][0] != got["change"][0]:
            die(1, f"{workload} seed {seed}: fingerprints differ "
                   f"(parent {got['parent'][0]}, change {got['change'][0]})")
        runs[workload].append({"seed": seed, "first": order[0], "fingerprint": got["parent"][0],
                               "parent": got["parent"][1], "change": got["change"][1]})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name} {got['parent'][1][name]:.4g} -> {got['change'][1][name]:.4g}"
            for name in got["parent"][1]), flush=True)


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


rows = []
for workload in workloads:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1  # sign * (a - b) < 0: a is better

        def beats(a, b):
            return sign * (a - b) < 0

        parent = [r["parent"][name] for r in runs[workload]]
        change = [r["change"][name] for r in runs[workload]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_iqr, c_iqr = iqr(parent), iqr(change)
        wins = sum(beats(c, p) for c, p in zip(change, parent))
        if sign * (c_med - p_med) > bound * p_med:
            verdict = "worse"
        elif p_iqr > bound * p_med and not all(beats(c, p) for c in change for p in parent):
            verdict = "unresolved"
        elif wins >= 9 and sign * (p_med - c_med) > p_iqr:
            verdict = "gain"
        else:
            verdict = "same"
        rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                     "parent_median": p_med, "parent_iqr": p_iqr,
                     "change_median": c_med, "change_iqr": c_iqr,
                     "wins": wins, "pairs": len(SEEDS), "verdict": verdict})

print(f"\nparent {commits['parent']}\nchange {commits['change']}\n")
print(f"{'workload':<14}{'metric':<13}{'parent median (IQR)':>26}"
      f"{'change median (IQR)':>26}{'wins':>7}  verdict")
for r in rows:
    p = f"{r['parent_median']:.4g} ({r['parent_iqr']:.2g}) {r['unit']}"
    c = f"{r['change_median']:.4g} ({r['change_iqr']:.2g}) {r['unit']}"
    print(f"{r['workload']:<14}{r['metric']:<13}{p:>26}{c:>26}"
          f"{r['wins']:>4}/{r['pairs']}  {r['verdict']}")

cpu = ""
if os.path.exists("/proc/cpuinfo"):
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), "")
entry = {"kind": "eblnet.pair",
         "host": {"cpu": cpu, "platform": platform.platform()},
         "parent": commits["parent"], "change": commits["change"],
         "run_seconds": seconds, "seeds": SEEDS, "runs": runs, "table": rows}
with open(out_path, "w") as f:
    json.dump(entry, f, indent=2)
    f.write("\n")
sys.exit(1 if any(r["verdict"] == "worse" for r in rows) else 0)
EOF
  if [ -s "$RUN" ]; then
    append_run "$RUN"
  fi
  exit "$STATUS"
fi

# Plain Release would compile at CMake's -O3; perfbench/CMakeLists.txt
# sets these flags too, so micro and perfbench numbers share them.
cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
cmake --build "$BUILD"

case "$MODE" in
  scale)
    echo "== perf_scale (batched spatial-grid channel vs flat broadcast loop) =="
    "$BUILD"/bench/perf_scale full --json "$RUN" ;;
  resilience)
    echo "== resilience_sweep (paper trials under crash/blackout/PER faults) =="
    "$BUILD"/bench/resilience_sweep --json "$RUN" ;;
  traffic)
    echo "== traffic_sweep (IDM shockwave vs V2V market penetration) =="
    "$BUILD"/bench/traffic_sweep --json "$RUN" ;;
  beacon)
    echo "== intersection_beacon (EDCA beacon rate x density under corner NLOS) =="
    "$BUILD"/bench/intersection_beacon --json "$RUN" ;;
esac
if [ "$MODE" != micro ]; then
  append_run "$RUN"
  echo
fi

# Micro-benchmark counterparts; the sweeps above are the whole story for
# the other modes.
if [ "$MODE" = scale ]; then
  echo "== micro_components (channel broadcast hot path) =="
  "$BUILD"/bench/micro_components --benchmark_filter='Channel' \
      --benchmark_min_time=0.2
elif [ "$MODE" = traffic ]; then
  echo "== micro_components (IDM law: textbook pow vs exact x^4) =="
  "$BUILD"/bench/micro_components --benchmark_filter='Idm' \
      --benchmark_min_time=0.2
elif [ "$MODE" = micro ]; then
  echo "== micro_components (scheduler/packet hot paths) =="
  "$BUILD"/bench/micro_components --benchmark_filter='Scheduler|Packet' \
      --benchmark_min_time=0.2
fi
