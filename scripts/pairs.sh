#!/usr/bin/env bash
# pairs.sh <workload> [base [pairs [seed]]] — paired benchmark evidence
# for a change: the working tree against base (default HEAD~1) on one
# workload of `go run ./benchmark`, pairs runs of each (default 10), seed
# default 1, each run measuring for BENCHMARK.json's run_seconds.
#
# Both sides are built once from their own trees: base from a `git
# archive` copy (as mutants.sh makes: a copy is not registered in the
# repository, so a killed run leaves nothing behind), the change from the
# working tree. Runs alternate base and change, and which of them goes
# first flips from pair to pair, so the machine's drift over minutes
# lands on both sides alike.
#
# Writes BENCH_<workload>.json at the repository root: both commits, the
# seed, the pair count, the run length, the failed and attempted
# operations of each side, and per metric each side's value in every
# pair (in pair order), the median and the quartiles of each side, the
# ratio of the medians (change / base), the median of the per-pair ratios
# with its 2nd and (n−1)th order statistics (for ten pairs the 2nd–9th, a
# distribution-free interval that holds the true median ratio with 98 %
# confidence), the pairs the change won and lost (a tie is neither) and a
# verdict:
#   better      at least ten pairs ran, the change won at least 9 in 10
#               of them, and its median is better than base's by more
#               than the width of base's interquartile range;
#   worse       the same with lost pairs and a worse median;
#   unresolved  anything else.
# All three conditions, because each alone is decided by drift: medians
# of two sets taken minutes apart can differ by more than an IQR with the
# pairs split, a 7-in-10 win count comes up by chance, and two pairs of
# one binary against itself have read 2/2 "better" by 7 %.
#
# Exits 1 when an end-to-end metric of BENCHMARK.json (read, never
# written) is worse at the change's median than base's by more than its
# bound, as a fraction of base's median, or when the change fails a
# larger share of its operations; 2 on a usage or build error. Takes
# about 2 × pairs × (seconds + setup); not part of check.sh.
set -eu

cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: scripts/pairs.sh <workload> [base [pairs [seed]]]" >&2
    exit 2
fi
workload=$1
ref=${2:-HEAD~1}
pairs=${3:-10}
seed=${4:-1}
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
if [ -z "$seconds" ]; then
    echo "pairs: no run_seconds in BENCHMARK.json" >&2
    exit 2
fi

base=$(git rev-parse --verify "$ref^{commit}") || exit 2
change=$(git rev-parse HEAD)
# The BENCH_*.json files are this script's own output: a run for a second
# workload is not of a dirty tree because the first one wrote its file.
if [ -n "$(git status --porcelain --untracked-files=no -- . ':!BENCH_*.json')" ]; then
    change="$change+dirty"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bin.base" ./benchmark) || exit 2
go build -o "$tmp/bin.change" ./benchmark || exit 2

# run <side> <pair>: one run of a side from its own tree; its metric
# lines go to $tmp/<side>.txt as "<pair> <metric> <value>", its failed
# and attempted counts as "<pair> :ops <failed> <attempted>".
run() {
    local side=$1 i=$2 dir=. out
    [ "$side" = base ] && dir=$tmp/base
    out=$(cd "$dir" && "$tmp/bin.$side" -workload "$workload" -seed "$seed" \
        -seconds "$seconds" -out "$tmp/out.$side") || {
        echo "pairs: $side run $i failed" >&2
        exit 2
    }
    echo "$out" | awk -v w="$workload" -v i="$i" '$1 == w && NF == 4 { print i, $2, $3 }' >>"$tmp/$side.txt"
    echo "$out" | sed -n 's/^{"correct":[a-z]*,"attempted":\([0-9]*\),"failed":\([0-9]*\).*/\2 \1/p' |
        awk -v i="$i" '{ print i, ":ops", $1, $2 }' >>"$tmp/$side.txt"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run change "$i"
    else
        run change "$i"
        run base "$i"
    fi
    echo "pairs: $workload pair $i/$pairs done" >&2
done

# The end-to-end metrics' direction and bound, one "name better bound"
# line each, from BENCHMARK.json's end_to_end array.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }' BENCHMARK.json >"$tmp/e2e.txt"

awk -v workload="$workload" -v base="$base" -v change="$change" -v seed="$seed" \
    -v pairs="$pairs" -v seconds="$seconds" -v out="BENCH_$workload.json" '
function sortv(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# q returns quantile p of the sorted a[1..n], linearly interpolated.
function q(a, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    if (lo >= n) return a[n]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
FILENAME ~ /e2e.txt$/ { better[$1] = $2; bound[$1] = $3; next }
$2 == ":ops" { failed[side(FILENAME)] += $3; attempted[side(FILENAME)] += $4; next }
{ s = side(FILENAME); v[s, $2, $1] = $3; seen[$2] = 1 }
function side(f) { return f ~ /base.txt$/ ? "base" : "change" }
END {
    worse = 0
    printf "{\n  \"workload\": \"%s\",\n  \"base\": \"%s\",\n  \"change\": \"%s\",\n", workload, base, change >out
    printf "  \"seed\": %d,\n  \"pairs\": %d,\n  \"seconds\": %s,\n", seed, pairs, seconds >out
    printf "  \"ops\": {\"base\": {\"failed\": %d, \"attempted\": %d}, \"change\": {\"failed\": %d, \"attempted\": %d}},\n",
        failed["base"], attempted["base"], failed["change"], attempted["change"] >out
    if (attempted["base"] > 0 && attempted["change"] > 0 &&
        failed["change"] / attempted["change"] > failed["base"] / attempted["base"]) {
        printf "pairs: the change fails %d of %d operations, base %d of %d\n",
            failed["change"], attempted["change"], failed["base"], attempted["base"] >"/dev/stderr"
        worse = 1
    }
    printf "  \"metrics\": {" >out
    nm = 0
    for (m in seen) names[++nm] = m
    sortv(names, nm)
    for (k = 1; k <= nm; k++) {
        m = names[k]
        dir = (m in better) ? better[m] : "lower"
        nb = 0; nc = 0; nr = 0; wins = 0; losses = 0; bvals = ""; cvals = ""
        for (i = 1; i <= pairs; i++) {
            if (!(("base", m, i) in v) || !(("change", m, i) in v)) continue
            b[++nb] = v["base", m, i]; c[++nc] = v["change", m, i]
            bvals = bvals (nb > 1 ? ", " : "") sprintf("%.6g", b[nb])
            cvals = cvals (nc > 1 ? ", " : "") sprintf("%.6g", c[nc])
            if (b[nb] != 0) r[++nr] = c[nc] / b[nb]
            if ((dir == "lower" && c[nc] < b[nb]) || (dir == "higher" && c[nc] > b[nb])) wins++
            if ((dir == "lower" && c[nc] > b[nb]) || (dir == "higher" && c[nc] < b[nb])) losses++
        }
        if (nb == 0) continue
        sortv(b, nb); sortv(c, nc); sortv(r, nr)
        # The per-pair ratio median and its 2nd and (n-1)th order
        # statistics (the extremes under four pairs); 0 with no ratio.
        ro = nr >= 4 ? 2 : 1
        rm = nr > 0 ? q(r, nr, 0.5) : 0
        rlo = nr > 0 ? r[ro] : 0
        rhi = nr > 0 ? r[nr + 1 - ro] : 0
        bm = q(b, nb, 0.5); cm = q(c, nc, 0.5)
        bq1 = q(b, nb, 0.25); bq3 = q(b, nb, 0.75)
        ratio = bm != 0 ? cm / bm : 0
        gap = cm - bm
        if (dir == "higher") gap = -gap
        verdict = "unresolved"
        if (nb >= 10 && 10 * wins >= 9 * nb && -gap > bq3 - bq1) verdict = "better"
        if (nb >= 10 && 10 * losses >= 9 * nb && gap > bq3 - bq1) verdict = "worse"
        printf "%s\n    \"%s\": {\"better\": \"%s\", \"base_values\": [%s], \"change_values\": [%s], \"base_median\": %.6g, \"base_iqr\": [%.6g, %.6g], \"change_median\": %.6g, \"change_iqr\": [%.6g, %.6g], \"ratio\": %.4f, \"pair_ratio_median\": %.4f, \"pair_ratio_interval\": [%.4f, %.4f], \"wins\": %d, \"losses\": %d, \"verdict\": \"%s\"}",
            (k > 1 ? "," : ""), m, dir, bvals, cvals, bm, bq1, bq3, cm, q(c, nc, 0.25), q(c, nc, 0.75), ratio, rm, rlo, rhi, wins, losses, verdict >out
        if ((m in bound) && gap > bound[m] * (bm < 0 ? -bm : bm)) {
            printf "pairs: %s is worse than base by more than its bound %s: %.6g -> %.6g\n", m, bound[m], bm, cm >"/dev/stderr"
            worse = 1
        }
        printf "%s %s: base %.4g [%.4g, %.4g], change %.4g, ratio %.3f, pair ratio %.3f [%.3f, %.3f], change won %d/%d, lost %d: %s\n",
            workload, m, bm, bq1, bq3, cm, ratio, rm, rlo, rhi, wins, nb, losses, verdict >"/dev/stderr"
    }
    printf "\n  }\n}\n" >out
    exit worse
}' "$tmp/e2e.txt" "$tmp/base.txt" "$tmp/change.txt"
