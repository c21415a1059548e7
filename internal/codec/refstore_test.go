package codec

import (
	"bytes"
	"fmt"
	"testing"

	"openvcu/internal/codec/rc"
)

// TestRecycledReferencesAreDead drives encodeOne through keyframes, golden
// refreshes and non-shown alt-refs, and after every frame checks the free
// lists against the reference store: the next reconstruction and the next
// plane build overwrite what they pop, so nothing on a list — a reference,
// its frame, its pyramid, a set of half-sample planes — may still be
// reachable from a slot, or be listed twice. It also holds the encoder to
// the bytes of one whose free lists are emptied before every frame, so a
// recycled buffer that is read before it is rewritten shows. Speed 0
// searches all three slots; Speed 2 only LAST, so the other slots' frames
// never own planes.
func TestRecycledReferencesAreDead(t *testing.T) {
	for _, speed := range []int{0, 2} {
		t.Run(fmt.Sprintf("speed%d", speed), func(t *testing.T) { testRecycledReferences(t, speed) })
	}
}

func testRecycledReferences(t *testing.T, speed int) {
	frames := testSource(64, 64, 12, 8)
	cfg := Config{Profile: VP9Class, Width: 64, Height: 64, GoldenPeriod: 2, Workers: 1, Speed: speed,
		RC: rc.Config{BaseQP: 32}}
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}

	recycled := 0
	check := func(when string) {
		seen := map[any]string{}
		claim := func(owner string, r *reference) {
			bufs := []any{r, r.frame, &r.frame.Y[0], &r.frame.U[0], &r.frame.V[0], r.pyr}
			if r.half != nil {
				bufs = append(bufs, r.half)
			}
			for _, buf := range bufs {
				if prev, dup := seen[buf]; dup && prev != owner {
					t.Fatalf("%s: %s and %s share a %T", when, prev, owner, buf)
				}
				seen[buf] = owner
			}
		}
		for _, r := range enc.refs {
			if r != nil {
				claim("the store", r) // slots may share one reference
			}
		}
		for i, r := range enc.free {
			if r.half != nil {
				t.Fatalf("%s: free[%d] kept its planes", when, i)
			}
			claim(fmt.Sprintf("free[%d]", i), r)
		}
		for i, hp := range enc.freeHalf {
			owner := fmt.Sprintf("freeHalf[%d]", i)
			if prev, dup := seen[hp]; dup {
				t.Fatalf("%s: %s and %s share a %T", when, prev, owner, hp)
			}
			seen[hp] = owner
		}
		recycled += len(enc.free) * len(enc.freeHalf)
		if len(enc.free) > numRefSlots || len(enc.freeHalf) > numRefSlots {
			t.Fatalf("%s: %d references and %d plane sets on the free lists, more than %d slots can retire",
				when, len(enc.free), len(enc.freeHalf), numRefSlots)
		}
	}
	encode := func(i int, keyframe, show, altref bool) {
		fresh.free, fresh.freeHalf = nil, nil
		got, err := enc.encodeOne(frames[i], i, keyframe, show, altref)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.encodeOne(frames[i], i, keyframe, show, altref)
		if err != nil {
			t.Fatal(err)
		}
		when := fmt.Sprintf("frame %d (key=%v show=%v altref=%v)", i, keyframe, show, altref)
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%s differs from the encoder that recycles nothing", when)
		}
		check(when)
	}
	for i := 0; i < len(frames)-1; i++ {
		if i%4 == 1 {
			encode(i+1, false, false, true) // a non-shown alt-ref ahead of its group
		}
		encode(i, i%6 == 0, true, false)
	}
	if recycled == 0 {
		t.Fatal("the free lists never held a reference and a plane set at once")
	}
}
