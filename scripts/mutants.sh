#!/usr/bin/env bash
# mutants.sh [ref [pattern]] — what each gate step catches, measured
# (`make mutants`).
# mutants.sh --changed [base] — the same rows, at HEAD, for the mutants
# a change can move: those whose pkg: names a package the diff from base
# (default HEAD~1) to HEAD touches.
#
# mutants/*.patch is a catalogue of single-edit bugs in the live tree,
# one bug class each (mutants/README.md). For every patch (or those whose
# name matches the shell pattern) this script applies it to a
# `git archive` copy of ref (default HEAD), runs the gate's steps on the
# packages the patch names cheapest first — go vet, vculint
# (built from the copy, before any patch), go test, and `go test -race`
# as scripts/race.sh of this checkout defines it, only when the other
# three pass, up to three runs of it — and prints one Markdown row:
# which steps kill the mutant and in how many seconds. A rule, a test or a race run earns its place
# in the gate by a row nothing cheaper kills first; a row nothing kills
# is a hole in the gate, to be closed or written down: the script exits
# 1 when a mutant survives that mutants/SURVIVORS.md does not name. Not
# a gate step: ~15 minutes.
#
# A run of the whole catalogue (no pattern) also writes what it printed
# to mutants/TABLE.md, the copy the documents link to: commit it with
# the change it measures.
#
# --changed is the run for a change that edits a package some mutant
# names; a change to the catalogue or the gate runs the whole of it.
#
# The catalogue is read from this checkout, so `mutants.sh <parent>`
# holds an older commit against the same mutants. A patch that no longer
# applies is a stale catalogue: the script names them all (check_catalogue
# in scripts/catalogue.sh, the check scripts/check.sh runs on every
# change) and exits 2 before measuring anything, as it does at a mutant
# that no longer builds.
set -u

cd "$(dirname "$0")/.."
repo=$PWD
. "$repo/scripts/catalogue.sh"
if [ "${1:-}" = --changed ]; then
    base=${2:-HEAD~1}
    ref=HEAD
    git rev-parse -q --verify "$base^{commit}" >/dev/null || { echo "mutants.sh: no commit $base" >&2; exit 2; }
    pattern='*'
    # touched lists ./dir for every package directory with a .go file
    # (tests included) that differs between base and HEAD, both sides of
    # a rename.
    touched=$(git diff --no-renames --name-only "$base" HEAD -- '*.go' |
        awk '{ if (sub(/\/[^\/]*$/, "")) print "./" $0; else print "." }' | sort -u)
    [ -n "$touched" ] || { echo "mutants.sh: no .go file changed since $base" >&2; exit 0; }
else
    ref=${1:-HEAD}
    pattern=${2:-*}
    touched=
fi

# selected <patch>: whether the run measures it (every patch unless
# --changed, then those naming a touched package).
selected() {
    [ -n "$touched" ] || return 0
    local pkg
    for pkg in $(field pkg "$1"); do
        grep -qxF "$pkg" <<<"$touched" && return 0
    done
    return 1
}

# What a deadlocked test costs; check.sh gives `go test ./...` the same.
test_timeout=90s

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
git archive "$ref" | tar -x -C "$work" || exit 2
cd "$work" || exit 2
go build -o "$work/.vculint" ./cmd/vculint || exit 2

# say prints a line of the table and keeps it for mutants/TABLE.md.
say() { printf '%s\n' "$*" | tee -a "$work/.table"; }

stale=0
for p in "$repo"/mutants/$pattern.patch; do
    if selected "$p" && ! check_catalogue "$repo/mutants" "$(basename "$p" .patch)"; then
        stale=1
    fi
done
if [ "$stale" -ne 0 ]; then
    echo "mutants.sh: the catalogue is stale against $ref" >&2
    exit 2
fi

# timed <outfile> cmd...: runs cmd, sets $took (wall seconds) and $rc.
timed() {
    local out=$1 t0
    shift
    t0=$(date +%s.%N)
    "$@" >"$out" 2>&1
    rc=$?
    took=$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
}

# kill_cell <var> <text>: records a kill in the named cell, the first
# one of the row in bold.
kill_cell() {
    if [ -z "$killed" ]; then
        killed=1
        printf -v "$1" '**%s**' "$2"
    else
        printf -v "$1" '%s' "$2"
    fi
}

say "mutation yield of the gate at $(git -C "$repo" rev-parse --short "$ref")${touched:+, mutants of the packages changed since $base}: first killer in bold, – = passes"
say
say "| class | mutant | vet | vculint | go test | -race |"
say "|---|---|---|---|---|---|"
survivors=""
for p in "$repo"/mutants/$pattern.patch; do
    selected "$p" || continue
    name=$(basename "$p" .patch)
    class=$(field class "$p")
    pkg=$(field pkg "$p")
    patch -p1 -s -f -F0 <"$p"
    if ! go build ./... 2>"$work/.out"; then
        echo "mutants.sh: $name no longer builds on $ref:" >&2
        cat "$work/.out" >&2
        exit 2
    fi
    killed=""

    # pkg may name several packages: unquoted on purpose.
    # shellcheck disable=SC2086
    timed "$work/.out" go vet $pkg
    vet="–"
    [ "$rc" -eq 0 ] || kill_cell vet "${took}s"

    timed "$work/.out" "$work/.vculint" ./...
    lint="–"
    if [ "$rc" -ne 0 ]; then
        rules=$(sed -n 's/^[^ ]*:[0-9]*:[0-9]*: \([a-z]*\): .*/\1/p' "$work/.out" | sort -u | paste -sd+)
        kill_cell lint "${rules:-exit $rc} ${took}s"
    fi

    # shellcheck disable=SC2086
    timed "$work/.out" go test -count=1 -timeout "$test_timeout" $pkg
    tst="–"
    if [ "$rc" -ne 0 ]; then
        how=fails
        grep -q "panic: test timed out" "$work/.out" && how=hangs
        kill_cell tst "$how ${took}s"
    fi

    race=""
    if [ -z "$killed" ]; then
        # A race shows only when the goroutines interleave, which a busy
        # host can prevent: the step runs up to three times before the
        # mutant counts as surviving it.
        for run in 1 2 3; do
            # shellcheck disable=SC2086
            timed "$work/.out" "$repo/scripts/race.sh" $pkg
            [ "$rc" -eq 0 ] || break
        done
        case $rc in
        0) race="–" ;;
        3) race="no race step" ;;
        *)
            cell="fails ${took}s"
            [ "$run" -eq 1 ] || cell="$cell (run $run)"
            kill_cell race "$cell"
            ;;
        esac
    fi
    [ -n "$killed" ] || survivors="$survivors $name"

    say "| $class | $name: $(field what "$p") | $vet | $lint | $tst | $race |"
    patch -p1 -R -s -f -F0 <"$p"
done

say
unnamed=0
if [ -z "$survivors" ]; then
    say "no survivors"
else
    say "survivors (nothing in the gate kills them):"
    for s in $survivors; do
        if grep -qF "\`$s\`" "$repo/mutants/SURVIVORS.md"; then
            say "- $s"
        else
            say "- $s   <- not in mutants/SURVIVORS.md"
            unnamed=1
        fi
    done
fi
[ "$pattern" != "*" ] || [ -n "$touched" ] || cp "$work/.table" "$repo/mutants/TABLE.md"
if [ "$unnamed" -ne 0 ]; then
    echo "mutants.sh: a new hole in the gate: close it with a test, or say in mutants/SURVIVORS.md why it stays" >&2
    exit 1
fi
