package core_test

import (
	"bytes"
	"errors"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/resilience"
)

// failFS fails every file write while fail is set, leaving no file behind.
type failFS struct {
	resilience.FS
	fail bool
}

func (f *failFS) WriteFile(path string, data []byte) error {
	if f.fail {
		return errors.New("write failed")
	}
	return f.FS.WriteFile(path, data)
}

// TestCheckpointerRestoresLastDurable: after every checkpoint call,
// restoring full + journal yields the merged state of the rings at the last
// checkpoint that reported success, equal by AppendBinary bytes, across
// failed segment writes, a failed and then a successful promotion to a new
// generation, and a failed write last.
func TestCheckpointerRestoresLastDurable(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	cfg := core.Config{Epsilon: 0.02, Delta: 0.05, V: 2 * dom.Size()}
	var rings []*core.PubRing[uint64]
	var engs []*core.Engine[uint64]
	for i := range 2 {
		cfg.Seed = uint64(31 + i)
		engs = append(engs, core.New(dom, cfg))
		rings = append(rings, core.NewPubRing(engs[i]))
	}
	dir := t.TempDir()
	fsys := &failFS{FS: resilience.OSFS{}}
	store, err := resilience.OpenStore(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	ck := core.NewCheckpointer(store, rings, 2)
	// restore loads the directory into a fresh single-ring checkpointer
	// with a journal of three segments.
	restore := func(seed uint64) (*core.Checkpointer[uint64], []byte) {
		t.Helper()
		cfg.Seed = seed
		ring := core.NewPubRing(core.New(dom, cfg))
		store, err := resilience.OpenStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		ck := core.NewCheckpointer(store, []*core.PubRing[uint64]{ring}, 3)
		if ok, err := ck.Restore(); !ok || err != nil {
			t.Fatalf("Restore() = %v, %v", ok, err)
		}
		got, err := ring.Current().Snapshot().AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return ck, got
	}

	// With a journal of two segments: full (generation 1), segment 1, a
	// failed segment 2, segment 2, a failed promotion, the promotion
	// (generation 2), segments 1 and 2, a failed promotion.
	kinds := []bool{true, false, false, false, true, true, false, false, true}
	fails := map[int]bool{2: true, 4: true, 8: true}
	r := fastrand.New(32)
	var want []byte
	for round, wantFull := range kinds {
		for i, eng := range engs {
			for range 4000 {
				eng.Update(gen2D(r))
			}
			rings[i].Publish()
		}
		fsys.fail = fails[round]
		full, err := ck.Checkpoint()
		if full != wantFull || (err != nil) != fails[round] {
			t.Fatalf("round %d: full=%v err=%v, want full=%v and failure=%v", round, full, err, wantFull, fails[round])
		}
		if err == nil {
			var sm core.SnapshotMerger[uint64]
			merged := sm.Merge(nil, rings[0].Current().Snapshot(), rings[1].Current().Snapshot())
			if want, err = merged.AppendBinary(nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, got := restore(99); !bytes.Equal(got, want) {
			t.Fatalf("round %d: restored state (%d bytes) differs from the last durable merge (%d bytes)", round, len(got), len(want))
		}
	}
	if gen, seq := ck.Generation(); gen != 2 || seq != 2 {
		t.Fatalf("Generation() = %d, %d after the run, want 2, 2", gen, seq)
	}

	// The restored state is the delta base: with the longer journal, the
	// next checkpoint is a segment extending the recovered one, and a
	// further restore reads the same state back.
	ck2, _ := restore(99)
	if gen, seq := ck2.Generation(); gen != 2 || seq != 2 {
		t.Fatalf("Generation() = %d, %d after restore, want 2, 2", gen, seq)
	}
	if full, err := ck2.Checkpoint(); full || err != nil {
		t.Fatalf("checkpoint after restore: full=%v err=%v, want a segment", full, err)
	}
	if _, again := restore(100); !bytes.Equal(again, want) {
		t.Fatal("restoring the extended journal changed the state")
	}
}
