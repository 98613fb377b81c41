#!/usr/bin/env sh
# Reproduce every figure and table of the paper from a clean tree:
# configure, build, test, run each bench into results/, and (when gnuplot
# is available) render the delay/throughput figures as PNGs.
set -eu

cd "$(dirname "$0")/.."
BUILD=build
RESULTS=results

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" --output-on-failure

# Same test suite under ASan+UBSan: the packet-pool / inline-callback /
# trace-arena lifetime code is exactly what sanitizers are for. One
# unfiltered pass runs every test once, so no label needs a pass of its
# own.
SAN_BUILD=build-asan
cmake -B "$SAN_BUILD" -G Ninja -DEBLNET_SANITIZE=ON
cmake --build "$SAN_BUILD"
ctest --test-dir "$SAN_BUILD" --output-on-failure

# The concurrent suites again under ThreadSanitizer: the Runner's trial
# fan-out (its workers, their shared index counter and the result slots)
# is the only code that runs on several threads, which only TSan can vet.
TSAN_BUILD=build-tsan
cmake -B "$TSAN_BUILD" -G Ninja -DEBLNET_TSAN=ON
cmake --build "$TSAN_BUILD"
ctest --test-dir "$TSAN_BUILD" -L parallel --output-on-failure
ctest --test-dir "$TSAN_BUILD" -L perf --output-on-failure

# The benches are the build's bench_json.<bench> ctests, as in
# scripts/bench_diff.sh: a stale binary of a deleted target, which CMake
# leaves in $BUILD/bench, does not run.
mkdir -p "$RESULTS"
for name in $(ctest --test-dir "$BUILD" -N -R '^bench_json\.' |
              sed -n 's/^ *Test *#[0-9]*: bench_json\.//p'); do
  echo "== $name =="
  "$BUILD/bench/$name" > "$RESULTS/$name.txt"
done

# Extract the figure series into gnuplot-friendly .dat files.
extract_series() {
  # $1: input txt, $2: output dat, $3: first data-column header token
  awk -v start="$3" '
    $1 == start { inblock = 1; next }
    inblock && NF >= 2 && $1 ~ /^[0-9]/ { print $1, $2; next }
    inblock && $1 !~ /^[0-9]/ { inblock = 0 }
  ' "$RESULTS/$1" > "$RESULTS/$2"
}

extract_series fig05_06_trial1_delay.txt fig05_trial1_delay.dat packet_id
extract_series fig07_trial1_throughput.txt fig07_trial1_throughput.dat time_s
extract_series fig08_09_trial2_delay.txt fig08_trial2_delay.dat packet_id
extract_series fig10_trial2_throughput.txt fig10_trial2_throughput.dat time_s
extract_series fig11_14_trial3_delay.txt fig11_trial3_delay.dat packet_id
extract_series fig15_trial3_throughput.txt fig15_trial3_throughput.dat time_s

if command -v gnuplot > /dev/null 2>&1; then
  for f in fig05_trial1_delay fig08_trial2_delay fig11_trial3_delay; do
    gnuplot -e "set term png size 800,500; set output '$RESULTS/$f.png'; \
      set xlabel 'packet id'; set ylabel 'one-way delay (s)'; \
      plot '$RESULTS/$f.dat' with points pt 7 ps 0.4 title '$f'"
  done
  for f in fig07_trial1_throughput fig10_trial2_throughput fig15_trial3_throughput; do
    gnuplot -e "set term png size 800,500; set output '$RESULTS/$f.png'; \
      set xlabel 'time (s)'; set ylabel 'throughput (Mbps)'; \
      plot '$RESULTS/$f.dat' with lines title '$f'"
  done
  echo "figures rendered to $RESULTS/*.png"
else
  echo "gnuplot not found: series left as $RESULTS/*.dat"
fi

echo "done; outputs in $RESULTS/"
