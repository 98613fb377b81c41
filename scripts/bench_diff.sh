#!/usr/bin/env sh
# Byte-identity checks of the bench reports.
#
#   scripts/bench_diff.sh <parent-build> <change-build>
#
# Two trees (for example the parent commit's build and a change's build):
# runs every bench binary in <parent-build>/bench with default arguments,
# runs its namesake in <change-build>/bench the same way, compares the two
# stdout captures byte for byte and prints one verdict per bench.
#
#   scripts/bench_diff.sh --cache <build>
#
# One tree, through the run cache: runs every bench in <build>/bench
# uncached, then with `--cache --cache-dir <d>` twice (cold, then warm)
# over a fresh cache directory per bench, compares both cached captures
# with the uncached one byte for byte, and prints the verdict with the
# number of cache entries the cold run wrote (0 for the benches whose
# experiment unit is not a paper-scenario trial).
#
# Verdicts:
#
#   identical    same bytes
#   DIFFERENT    bytes differ (the first differing lines follow)
#   FAILED       a run exited non-zero
#   MISSING      the change tree has no such bench
#   skipped      perf_scale, campaign_sweep, micro_components: their
#                output carries host timings, so bytes never match
#
# Each run starts in its own empty scratch directory, so nothing a bench
# writes lands in the caller's tree. Exit status: 0 when every compared
# bench is identical, 1 otherwise, 2 on bad arguments.
set -u

usage() {
  echo "usage: $0 <parent-build> <change-build>" >&2
  echo "       $0 --cache <build>" >&2
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
if [ "$1" = "--cache" ]; then
  cache_mode=1
  base=$(build_tree "$2") || exit 2
else
  cache_mode=0
  base=$(build_tree "$1") || exit 2
  change=$(build_tree "$2") || exit 2
fi

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

compared=0
differing=0
for bin in "$base"/bench/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name=$(basename "$bin")
  case "$name" in
    perf_scale | campaign_sweep | micro_components)
      printf '%-12s %s (output carries host timings)\n' skipped "$name"
      continue
      ;;
  esac
  compared=$((compared + 1))

  if [ "$cache_mode" -eq 1 ]; then
    store="$work/$name.cache"
    if ! run_bench "$bin" "$work/$name.plain"; then
      printf '%-12s %s (uncached run failed)\n' FAILED "$name"
      differing=$((differing + 1))
      continue
    fi
    if ! run_bench "$bin" "$work/$name.cold" --cache --cache-dir "$store"; then
      printf '%-12s %s (cold cached run failed)\n' FAILED "$name"
      differing=$((differing + 1))
      continue
    fi
    entries=$(find "$store" -type f -name '*.json' 2>/dev/null | wc -l | tr -d ' ')
    if ! run_bench "$bin" "$work/$name.warm" --cache --cache-dir "$store"; then
      printf '%-12s %s (warm cached run failed)\n' FAILED "$name"
      differing=$((differing + 1))
      continue
    fi
    verdict=identical
    for run in cold warm; do
      cmp -s "$work/$name.plain" "$work/$name.$run" && continue
      [ "$verdict" = identical ] &&
        printf '%-12s %s (cold run wrote %s entries)\n' DIFFERENT "$name" "$entries"
      verdict=DIFFERENT
      echo "  $run cached run vs uncached:"
      show_diff "$work/$name.plain" "$work/$name.$run"
    done
    if [ "$verdict" = identical ]; then
      printf '%-12s %s (cold run wrote %s entries)\n' identical "$name" "$entries"
    else
      differing=$((differing + 1))
    fi
    continue
  fi

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
    show_diff "$work/$name.parent" "$work/$name.change"
    differing=$((differing + 1))
  fi
done

echo "$((compared - differing)) of $compared benches identical"
[ "$differing" -eq 0 ]
