#!/usr/bin/env bash
# oracle-diff.sh [ref] — show that the working tree behaves exactly as
# <ref> (default HEAD~1), control plane and bitstreams alike: copy <ref>
# out with `git archive`, as pairs.sh and mutants.sh do (a copy is not
# registered in the repository, so a killed run leaves nothing behind),
# run this tree's scripts/oracle.sh there and here (so a change to the
# oracle itself is not a difference), and diff the two outputs. Exits 0
# when they are identical, 1 with the diff on stdout when they are not.
# Takes about ten minutes; not part of check.sh.
set -eu

cd "$(dirname "$0")/.."

ref=${1:-HEAD~1}
commit=$(git rev-parse --verify "$ref^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/ref"
git archive "$commit" | tar -x -C "$tmp/ref"
cp scripts/oracle.sh "$tmp/ref/scripts/oracle.sh"
echo "oracle at $ref ($(git rev-parse --short "$commit"))" >&2
"$tmp/ref/scripts/oracle.sh" >"$tmp/ref.txt"
echo "oracle at the working tree" >&2
scripts/oracle.sh >"$tmp/tree.txt"

if diff "$tmp/ref.txt" "$tmp/tree.txt"; then
    echo "oracle-diff: $(wc -l <"$tmp/tree.txt") lines, identical to $ref" >&2
else
    echo "oracle-diff: behaviour differs from $ref" >&2
    exit 1
fi
