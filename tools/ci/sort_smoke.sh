#!/usr/bin/env bash
# Sort agreement smoke: the default breakpoint sort (radix above 128 arcs)
# and the paper's heapsort must give byte-identical estimates on an instance
# whose row and column markets are all above the insertion threshold, at one
# thread and at four. The instance follows Table 1's protocol at 140x200:
# base values uniform in [0.1, 10000] from a fixed Park-Miller sequence,
# chi-square weights (gamma = 1/x0, sea_solve's default), totals twice the
# base sums, so most breakpoints of the first row sweep are exactly -2 and
# the tie order sets the order of the clearing sums.
# Runnable locally:
#
#   tools/ci/sort_smoke.sh [build-dir]
set -euo pipefail
BUILD_DIR="$(cd "${1:-build}" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

awk -v m=140 -v n=200 'BEGIN {
  x = 20260417
  for (i = 0; i < m; ++i) {
    line = ""
    for (j = 0; j < n; ++j) {
      x = (x * 16807) % 2147483647
      v = sprintf("%.6f", 0.1 + 9999.9 * x / 2147483647)
      row[i] += v; col[j] += v
      line = line (j ? "," : "") v
    }
    print line > "base.csv"
  }
  for (i = 0; i < m; ++i) printf "%.17g\n", 2 * row[i] > "rows.csv"
  for (j = 0; j < n; ++j) printf "%.17g\n", 2 * col[j] > "cols.csv"
}'

for sort in auto heapsort; do
  for threads in 1 4; do
    "$BUILD_DIR"/tools/sea_solve --mode fixed --matrix base.csv \
      --row-totals rows.csv --col-totals cols.csv --epsilon 1e-10 \
      --sort "$sort" --threads "$threads" --out "x_${sort}_t${threads}.csv" \
      > /dev/null
  done
done
cmp x_auto_t1.csv x_auto_t4.csv
cmp x_auto_t1.csv x_heapsort_t1.csv
cmp x_auto_t1.csv x_heapsort_t4.csv
echo "sort smoke: auto and heapsort estimates byte-identical at 1 and 4 threads"
