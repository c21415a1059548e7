#!/usr/bin/env bash
# check.sh — the tier-1 verification gate for this repository.
#
# Runs, in order:
#   1. gofmt         formatting drift fails the gate
#   2. go vet        toolchain static checks
#   3. vculint       project-specific analyzers (internal/lint) on one
#                    go/types check of the module, the four rules that
#                    each kill a mutant nothing cheaper kills
#                    (`make mutants`; table in DESIGN.md): determinism,
#                    errdrop, bigcopy, and the module-wide singleknob (a
#                    *Config field no caller sets), run one after
#                    another; the JSON report (with load and per-rule
#                    timing) is written to lint_report.json either way,
#                    and the suite must finish inside its wall-time
#                    budget
#   4. go build      the whole module
#   5. inlining      the range decoder's Decide still inlines into
#                    entropy.Sink.Bool (go build -gcflags=-m), so an
#                    edit that pushes it over the compiler's budget of
#                    80 fails here instead of costing every decoded
#                    symbol a call
#   6. go test       the whole module, every test; a deadlock costs
#                    the timeout, not go's ten minutes
#   7. go test -race scripts/race.sh: the tests that start goroutines,
#                    and no others
#   8. bench smoke   kernel benchmarks compile and run (1 iteration)
#   9. fuzz smoke    4s each of FuzzDecode, FuzzContainer,
#                    FuzzTransformMatchesScalar and
#                    FuzzBoolDecoderMatchesBitSerial over their seeds,
#                    with no minimization, so the 4s are spent fuzzing
#  10. catalogue     every mutants/*.patch has its header and applies
#                    with every context line as written (`patch -F0
#                    --dry-run`, scripts/catalogue.sh), so an edit that
#                    moves a mutated line or rewrites one beside it
#                    re-cuts the patch in the same change rather than in
#                    `make mutants`
#
# Each step ends with the wall seconds it took and the gate with their
# total, so the gate's long pole is read off its own output. The gate
# ends with the non-test Go line count, total and per top-level package:
# the number every simplicity PR claims, counted one way.
#
# Every PR must leave this script exiting 0.
set -u

cd "$(dirname "$0")/.."

failures=0
step() {
    local name=$1 t0=$SECONDS
    echo "== $name"
    shift
    if ! "$@"; then
        echo "-- FAILED: $name" >&2
        failures=$((failures + 1))
    fi
    echo "-- $name: $((SECONDS - t0))s"
}

check_fmt() {
    local out
    out=$(gofmt -l .) || return 1
    if [ -n "$out" ]; then
        echo "gofmt needs to be run on:" >&2
        echo "$out" >&2
        return 1
    fi
}

# check_lint captures the machine-readable report unconditionally so CI
# can upload lint_report.json, and fails the gate on any non-suppressed
# finding (vculint exits 1 when a rule fires). The -timing envelope is
# part of the report; the analysis itself must stay under the wall-time
# budget so the suite never becomes the slow step of the gate. Type
# checking the module (load_ms) is nearly all of it: about 2 s here, so
# the budget is 2.5x what the suite takes, not 50x.
LINT_BUDGET_MS=5000
check_lint() {
    if ! go run ./cmd/vculint -json -timing ./... >lint_report.json; then
        echo "vculint findings (lint_report.json):" >&2
        cat lint_report.json >&2
        return 1
    fi
    local total_ms
    total_ms=$(sed -n 's/.*"total_ms": *\([0-9.]*\).*/\1/p' lint_report.json | head -n1)
    if [ -z "$total_ms" ]; then
        echo "lint_report.json has no timing.total_ms field" >&2
        return 1
    fi
    if awk -v t="$total_ms" -v b="$LINT_BUDGET_MS" 'BEGIN { exit !(t > b) }'; then
        echo "vculint took ${total_ms}ms, over the ${LINT_BUDGET_MS}ms budget" >&2
        return 1
    fi
}

# check_inline fails unless the compiler reports inlining
# bits.(*Decoder).Decide at a line inside entropy.Sink.Bool. go build
# replays a cached compile's diagnostics, so the step costs a second
# once the package is built.
check_inline() {
    local f=internal/codec/entropy/syntax.go from to
    from=$(grep -n '^func (s Sink) Bool(' "$f" | cut -d: -f1)
    to=$(awk -v s="$from" 'NR > s && /^}/ { print NR; exit }' "$f")
    if [ -z "$from" ] || [ -z "$to" ]; then
        echo "no func (s Sink) Bool in $f" >&2
        return 1
    fi
    if ! go build -gcflags=-m ./internal/codec/entropy 2>&1 |
        awk -F: -v a="$from" -v b="$to" '$1 ~ /syntax\.go$/ && $2 > a && $2 < b &&
            /inlining call to bits\.\(\*Decoder\)\.Decide$/ { found = 1 } END { exit !found }'; then
        echo "bits.(*Decoder).Decide is not inlined into entropy.Sink.Bool ($f:$from-$to)" >&2
        return 1
    fi
}

step "gofmt" check_fmt
step "go vet" go vet ./...
step "vculint" check_lint
step "go build" go build ./...
step "inlining (bool decision into entropy.Sink.Bool)" check_inline
# The slowest package (internal/codec) takes ~19 s; scripts/mutants.sh
# uses the same timeout.
step "go test" go test -timeout 90s ./...
step "go test -race (tests that start goroutines)" ./scripts/race.sh
# Kernel packages only: the root codec package's whole-frame benchmarks
# are minutes-long (`make profile-encode` runs them), not for the gate.
step "bench smoke (kernel packages)" go test -run=NONE -bench=. -benchtime=1x \
    ./internal/codec/motion ./internal/codec/transform ./internal/video
# Fuzz smoke: 4 seconds of coverage-guided input per target on top of
# its seeds and checked-in corpus — decoder panics and decoder bombs
# (FuzzDecode), container reader panics and allocation bounds
# (FuzzContainer), a fast transform kernel drifting from its scalar twin
# (FuzzTransformMatchesScalar), the windowed range decoder drifting from
# the bit-serial one in a symbol or in Overrun
# (FuzzBoolDecoderMatchesBitSerial). `go test` alone only replays the
# seeds.
# Minimization is off: by default every new interesting input is
# minimized for up to 60 s, which takes both workers from the first
# second or two on, so FuzzDecode and FuzzTransformMatchesScalar made no
# execs after that and overran to 5 s. A failing input is still saved
# under testdata/fuzz and fails the step, unminimized.
fuzz_smoke() {
    local f='-fuzztime=4s -fuzzminimizetime=0 -run=NONE'
    # shellcheck disable=SC2086
    go test -fuzz='^FuzzDecode$' $f ./internal/codec &&
        go test -fuzz='^FuzzContainer$' $f ./internal/container &&
        go test -fuzz='^FuzzTransformMatchesScalar$' $f ./internal/codec/transform &&
        go test -fuzz='^FuzzBoolDecoderMatchesBitSerial$' $f ./internal/bits
}
step "fuzz smoke (decoder, container, transform, range decoder)" fuzz_smoke
. scripts/catalogue.sh
step "mutant catalogue (headers, patch -F0 --dry-run)" check_catalogue mutants

# count_lines prints the non-test Go lines outside testdata/ under the
# given directories.
count_lines() {
    find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
}
echo "== non-test Go lines (outside testdata/)"
printf '%7d  %s\n' "$(count_lines . -maxdepth 1)" "(root package)"
for d in benchmark cmd examples internal/*/; do
    printf '%7d  %s\n' "$(count_lines "$d")" "${d%/}"
done
printf '%7d  total\n' "$(count_lines .)"

if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) failed in ${SECONDS}s" >&2
    exit 1
fi
echo "check.sh: all gates passed in ${SECONDS}s"
