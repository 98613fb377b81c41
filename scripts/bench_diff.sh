#!/usr/bin/env sh
# Byte-identity check of the bench reports between two build trees (for
# example the parent commit's build and a change's build):
#
#   scripts/bench_diff.sh <parent-build> <change-build>
#
# Runs every bench binary in <parent-build>/bench with default arguments,
# runs its namesake in <change-build>/bench the same way, compares the two
# stdout captures byte for byte and prints one verdict per bench:
#
#   identical    same bytes
#   DIFFERENT    bytes differ (the first differing lines follow)
#   FAILED       a run exited non-zero
#   MISSING      the change tree has no such bench
#   skipped      perf_sweep, perf_scale, campaign_sweep, micro_components:
#                their output carries host timings, so bytes never match
#
# Each run starts in its own empty scratch directory, so nothing a bench
# writes lands in the caller's tree. Exit status: 0 when every compared
# bench is identical, 1 otherwise, 2 on bad arguments.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
parent=$(cd "$1" 2>/dev/null && pwd) || { echo "$0: no such directory: $1" >&2; exit 2; }
change=$(cd "$2" 2>/dev/null && pwd) || { echo "$0: no such directory: $2" >&2; exit 2; }
if [ ! -d "$parent/bench" ] || [ ! -d "$change/bench" ]; then
  echo "$0: both arguments must be build trees with a bench/ directory" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# run_bench <binary> <stdout file>: run in a fresh directory, keep stdout.
run_bench() {
  dir=$(mktemp -d "$work/run.XXXXXX")
  (cd "$dir" && "$1" > "$2" 2> "$2.err")
}

compared=0
differing=0
for bin in "$parent"/bench/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name=$(basename "$bin")
  case "$name" in
    perf_sweep | perf_scale | campaign_sweep | micro_components)
      printf '%-12s %s (output carries host timings)\n' skipped "$name"
      continue
      ;;
  esac
  compared=$((compared + 1))
  if [ ! -x "$change/bench/$name" ]; then
    printf '%-12s %s\n' MISSING "$name"
    differing=$((differing + 1))
    continue
  fi
  if ! run_bench "$bin" "$work/$name.parent"; then
    printf '%-12s %s (parent run failed)\n' FAILED "$name"
    differing=$((differing + 1))
    continue
  fi
  if ! run_bench "$change/bench/$name" "$work/$name.change"; then
    printf '%-12s %s (change run failed)\n' FAILED "$name"
    differing=$((differing + 1))
    continue
  fi
  if cmp -s "$work/$name.parent" "$work/$name.change"; then
    printf '%-12s %s\n' identical "$name"
  else
    printf '%-12s %s\n' DIFFERENT "$name"
    diff "$work/$name.parent" "$work/$name.change" | head -n 10 | sed 's/^/    /'
    differing=$((differing + 1))
  fi
done

echo "$((compared - differing)) of $compared benches identical"
[ "$differing" -eq 0 ]
