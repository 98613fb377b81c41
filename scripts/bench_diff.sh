#!/usr/bin/env sh
# Byte-identity checks of the bench reports.
#
#   scripts/bench_diff.sh <parent-build> <change-build>
#
# Two trees (for example the parent commit's build and a change's build):
# runs every bench binary in <parent-build>/bench with default arguments,
# runs its namesake in <change-build>/bench the same way, compares the two
# stdout captures byte for byte and prints one verdict per bench. Each
# bench then runs again in both trees with `--json <file> --quiet`, and
# the two manifests are compared value by value with the host-timing keys
# masked (wall_s, events_per_sec, ns_per_event, ns_per_pair_eval,
# speedup_batched): counters such as mac_ack_timeouts appear only there.
#
#   scripts/bench_diff.sh --record <build>
#
# One tree: runs every bench in <build>/bench with default arguments and
# rewrites tests/data/bench_stdout.sha256 with one `<sha256>  <bench>`
# line per bench, the digests the bench_golden.<bench> ctests compare.
# A change that moves a digest names the bench and the reason.
#
# Verdicts:
#
#   identical    same bytes (and, with two trees, the same manifest)
#   DIFFERENT    bytes differ (the first differing lines follow), or the
#                manifests differ (the differing key paths follow)
#   FAILED       a run exited non-zero
#   MISSING      the change tree has no such bench
#   skipped      perf_scale, micro_components: their output carries
#                host timings, so bytes never match
#
# Each run starts in its own empty scratch directory, so nothing a bench
# writes lands in the caller's tree. Exit status: 0 when every compared
# bench is identical (or, with --record, every bench ran), 1 otherwise,
# 2 on bad arguments.
set -u

usage() {
  echo "usage: $0 <parent-build> <change-build>" >&2
  echo "       $0 --record <build>" >&2
  exit 2
}

# build_tree <dir>: the absolute path of a build tree with a bench/ directory.
build_tree() {
  tree=$(cd "$1" 2>/dev/null && pwd) || { echo "$0: no such directory: $1" >&2; exit 2; }
  [ -d "$tree/bench" ] || { echo "$0: not a build tree with a bench/ directory: $1" >&2; exit 2; }
  echo "$tree"
}

[ $# -eq 2 ] || usage
# base: the tree whose benches are run (the parent in two-tree mode).
case "$1" in
  --record)
    mode=record
    base=$(build_tree "$2") || exit 2
    ;;
  *)
    mode=diff
    base=$(build_tree "$1") || exit 2
    change=$(build_tree "$2") || exit 2
    ;;
esac
digests="$(cd "$(dirname "$0")/.." && pwd)/tests/data/bench_stdout.sha256"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# run_bench <binary> <stdout file> [args...]: run in a fresh directory,
# keep stdout.
run_bench() {
  bin=$1
  out=$2
  shift 2
  dir=$(mktemp -d "$work/run.XXXXXX")
  (cd "$dir" && "$bin" "$@" > "$out" 2> "$out.err")
}

# show_diff <reference> <capture>: the first differing lines, indented.
show_diff() {
  diff "$1" "$2" | head -n 10 | sed 's/^/    /'
}

# manifest_diff <reference> <capture>: the key paths whose values differ
# between two JSON manifests, host timings masked, indented; exits 1 if
# there are any.
manifest_diff() {
  python3 -c '
import json, sys
TIMINGS = {"wall_s", "events_per_sec", "ns_per_event", "ns_per_pair_eval",
           "speedup_batched"}
def diff(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted((set(a) | set(b)) - TIMINGS):
            yield from diff(a.get(k), b.get(k), path + "." + k)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from diff(x, y, path + "[]")
    elif a != b:
        yield path
a, b = (json.load(open(f)) for f in sys.argv[1:3])
paths = sorted(set(diff(a, b, "")))
for p in paths:
    print("    " + p)
sys.exit(1 if paths else 0)
' "$1" "$2"
}

compared=0
differing=0
for bin in "$base"/bench/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name=$(basename "$bin")
  case "$name" in
    perf_scale | micro_components)
      printf '%-12s %s (output carries host timings)\n' skipped "$name"
      continue
      ;;
  esac
  compared=$((compared + 1))

  if [ "$mode" = record ]; then
    if ! run_bench "$bin" "$work/$name.out"; then
      printf '%-12s %s\n' FAILED "$name"
      differing=$((differing + 1))
      continue
    fi
    digest=$(sha256sum < "$work/$name.out" | cut -d ' ' -f 1)
    printf '%s  %s\n' "$digest" "$name" >> "$work/digests"
    continue
  fi

  if [ ! -x "$change/bench/$name" ]; then
    printf '%-12s %s\n' MISSING "$name"
    differing=$((differing + 1))
    continue
  fi
  failed=
  for side in parent change; do
    [ "$side" = parent ] && side_bin=$bin || side_bin=$change/bench/$name
    if ! run_bench "$side_bin" "$work/$name.$side"; then
      failed="$side run failed"
    elif ! run_bench "$side_bin" "$work/$name.$side.log" --json "$work/$name.$side.json" --quiet; then
      failed="$side --json run failed"
    fi
    [ -n "$failed" ] && break
  done
  if [ -n "$failed" ]; then
    printf '%-12s %s (%s)\n' FAILED "$name" "$failed"
    differing=$((differing + 1))
    continue
  fi
  verdict=identical
  if ! cmp -s "$work/$name.parent" "$work/$name.change"; then
    printf '%-12s %s (stdout)\n' DIFFERENT "$name"
    show_diff "$work/$name.parent" "$work/$name.change"
    verdict=DIFFERENT
  fi
  if ! manifest_diff "$work/$name.parent.json" "$work/$name.change.json" > "$work/$name.keys"; then
    printf '%-12s %s (manifest)\n' DIFFERENT "$name"
    cat "$work/$name.keys"
    verdict=DIFFERENT
  fi
  if [ "$verdict" = identical ]; then
    printf '%-12s %s\n' identical "$name"
  else
    differing=$((differing + 1))
  fi
done

if [ "$mode" = record ]; then
  [ "$differing" -eq 0 ] || { echo "$0: a bench failed; $digests left as it was" >&2; exit 1; }
  LC_ALL=C sort -k 2 "$work/digests" > "$digests"
  echo "recorded $compared digests in $digests"
  exit 0
fi
echo "$((compared - differing)) of $compared benches identical"
[ "$differing" -eq 0 ]
