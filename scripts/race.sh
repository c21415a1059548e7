#!/usr/bin/env bash
# race.sh [pkg...] — the gate's -race step (check.sh step 6, `make race`),
# run from the module root: `go test -race` on the tests that start
# goroutines and no others. Under -race the pixel kernels run ~10x slow
# (the race runtime's read/write hooks under sampleSharp and SAD), so the
# whole of internal/codec costs ~220 s and finds what these tests find in
# ~20 s: the kill table in mutants/TABLE.md (`make mutants` writes it)
# is what picks them. Every test still runs without -race in step 5.
#
# With arguments, only the runs of those packages; exit 3 if there are
# none (scripts/mutants.sh prints that as "no race step").
set -u

# -run pattern, then the packages it is run on (one `go test`, so they
# build and run side by side).
#   par, transcode     whole package: seconds. par.Do is every fan-out in
#                      the module; its own test is where a slot shared
#                      between calls, or a join that is not one, shows.
#                      transcode's ChunkedReportsLowestFailingChunk at
#                      parallelism 2 is where state the chunks of Chunked
#                      share shows (row parcapture-shared-accumulator,
#                      which go test kills first).
#   cluster            the control plane is one sim goroutine; only the
#                      real-pixels tests reach transcode and codec.
#   codec              one invocation. TileColumnsRoundTrip: tile coders
#                      of encoder and decoder, end to end, and the
#                      decoder's deblock stripes (VP9-class), both on
#                      GOMAXPROCS goroutines: on a one-core host the
#                      decoder runs them inline.
#                      ParallelTileEncodeDeterminism: concurrent tiles,
#                      striped deblock and restoration, and a tile
#                      writing a reference frame or search pyramid the
#                      other tiles read (rows sharedmut-tile-writes-
#                      reference-frame and -search-pyramid, which only
#                      this run kills). ParallelMatchesSequential's
#                      av1_restoration case alone (the subtest pattern
#                      filters only tests that have subtests): what the
#                      GOP spans of gop.go share.
#   codec/filter       the *ParallelMatchesSequential tests: deblock,
#                      restoration and the restoration weight search,
#                      each with a goroutine per stripe, where stripes
#                      that overlap show (row race-restore-stripes-
#                      overlap: equal values written twice, which only
#                      this run kills). The codec entries above never
#                      run restoration at more than one worker: the
#                      only AV1-class case encodes its GOP spans at
#                      Workers 1 and decodes nothing.
#   internal/video and internal/sched start no goroutine in code or
#   tests; sched belongs to the cluster's sim goroutine.
runs='
. ./internal/par ./internal/transcode
RealPixels ./internal/cluster
^(TestTileColumnsRoundTrip|TestParallelTileEncodeDeterminism|TestEncodeSequenceParallelMatchesSequential)$/^av1_restoration$ ./internal/codec
ParallelMatchesSequential ./internal/codec/filter
'

status=3
while read -r pattern pkgs; do
    [ -n "$pattern" ] || continue
    if [ $# -gt 0 ]; then
        asked=
        for pkg in $pkgs; do
            case " $* " in *" $pkg "*) asked="$asked $pkg" ;; esac
        done
        pkgs=$asked
    fi
    [ -n "$pkgs" ] || continue
    [ "$status" -eq 3 ] && status=0
    # shellcheck disable=SC2086
    go test -race -run "$pattern" $pkgs || status=1
done <<<"$runs"
exit "$status"
