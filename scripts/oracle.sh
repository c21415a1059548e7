#!/usr/bin/env bash
# oracle.sh — the system's behaviour, printed so that "identical to the
# parent commit" is one diff:
#
#   scripts/oracle.sh >/tmp/new.txt          # on the change
#   (cd <parent checkout> && scripts/oracle.sh) >/tmp/old.txt
#   diff /tmp/old.txt /tmp/new.txt
#
# Everything printed depends only on seeds: the `# exact` lines and the
# output digests of the benchmark's two park workloads (control plane)
# and three pixel workloads (codec, container, transcode: a digest moves
# with any byte of any bitstream) at seeds 1-3, then every deterministic
# producer EXPERIMENTS.md names: Table 1 and Figure 7 (cmd/vbench), the
# fleetsim figures and overload, autoscale and audit tables, the balance
# and workload reports, and the failure drill. A change that moves a
# recorded number shows it in the diff. Timings are left out. Takes
# about five minutes; not part of check.sh.
set -eu

cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for workloads in park_overload,park_steady upload_ladder,live_frames,playback_decode; do
    for seed in 1 2 3; do
        echo "== benchmark $workloads seed $seed"
        go run ./benchmark --workload "$workloads" --seconds 3 \
            --seed "$seed" --out "$out" | grep '^# .* exact '
        grep -E '"(name|digest)":' "$out/results.json"
    done
done
# produce <package> [flags]: one producer's output under its command line.
produce() {
    echo "==" "$@"
    local pkg=$1
    shift
    go run "./$pkg" "$@"
}
produce cmd/vbench -table1
produce cmd/vbench -rd -frames 12
produce cmd/fleetsim -fig8 -fig9a -fig9b -fig9c -fig10
produce cmd/fleetsim -overload
produce cmd/fleetsim -autoscale
produce cmd/fleetsim -audit
produce cmd/balance
produce cmd/workload
produce examples/failuredrill
