# catalogue.sh — sourced, not run: the mutant catalogue's stale check,
# shared by scripts/mutants.sh (against the copy of the commit it
# measures) and scripts/check.sh (against the working tree, on every
# change).
#
# check_catalogue <mutants-dir> [pattern] checks every
# <mutants-dir>/<pattern>.patch (pattern default *) against the tree in
# the current directory: each patch must carry its class:, pkg: and
# what: header (mutants/README.md) and apply with `patch -F0 --dry-run`:
# no fuzz, so every context line must still read as the patch has it,
# and only the line offset may differ. It names every patch that fails
# and returns 1 if any did. A change that moves a mutated line, or
# rewrites a line of its context, re-cuts the patch in the same change
# (patch's default fuzz would drop up to two outer context lines and let
# a stale patch land on whatever nearby line still matches). Under a
# second for the whole catalogue.

# field <name> <patch> prints the value of a patch's header line.
field() { sed -n "s/^$1: *//p" "$2" | head -n1; }

check_catalogue() {
    local dir=$1 pattern=${2:-*} p stale=0
    for p in "$dir"/$pattern.patch; do
        if [ -z "$(field class "$p")" ] || [ -z "$(field pkg "$p")" ] || [ -z "$(field what "$p")" ]; then
            echo "catalogue: $(basename "$p"): missing class:, pkg: or what: header" >&2
            stale=1
        elif ! patch -p1 -s -f -F0 --dry-run <"$p" >/dev/null; then
            echo "catalogue: $(basename "$p") no longer applies" >&2
            stale=1
        fi
    done
    return "$stale"
}
