package core_test

import (
	"bytes"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// TestSnapshotOutputMatchesEngineOutput: the snapshot query path must be
// bit-identical to the live engine's Output — same candidates, same bounds,
// same correction — across dimensions and sampling modes.
func TestSnapshotOutputMatchesEngineOutput(t *testing.T) {
	t.Run("1D", func(t *testing.T) {
		dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
		eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: 3})
		r := fastrand.New(4)
		for i := 0; i < 150000; i++ {
			eng.Update(uint32(r.Uint64n(1 << 14)))
		}
		for _, theta := range []float64{0.01, 0.1, 0.5} {
			a := eng.Output(theta)
			b := eng.Snapshot().Output(dom, theta)
			if len(a) != len(b) {
				t.Fatalf("theta=%v: %d vs %d results", theta, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("theta=%v result %d: %+v vs %+v", theta, i, a[i], b[i])
				}
			}
		}
	})
	t.Run("2D-V>H", func(t *testing.T) {
		dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
		eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, V: 10 * dom.Size(), Seed: 5})
		r := fastrand.New(6)
		for i := 0; i < 400000; i++ {
			eng.Update(gen2D(r))
		}
		a := eng.Output(0.05)
		b := eng.Snapshot().Output(dom, 0.05)
		if len(a) != len(b) {
			t.Fatalf("%d vs %d results", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	})
}

// TestSnapshotIsStable: a snapshot must not change when the engine keeps
// updating after capture.
func TestSnapshotIsStable(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 1})
	r := fastrand.New(2)
	for i := 0; i < 50000; i++ {
		eng.Update(uint32(r.Uint64n(1 << 10)))
	}
	snap := eng.Snapshot()
	before := snap.Output(dom, 0.1)
	for i := 0; i < 50000; i++ {
		eng.Update(uint32(r.Uint64n(1 << 10)))
	}
	after := snap.Output(dom, 0.1)
	if len(before) != len(after) {
		t.Fatalf("snapshot changed under live updates: %d vs %d results", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot result %d changed under live updates", i)
		}
	}
}

// TestReseedReproducesFreshEngine: Reset+Reseed(s) must make an engine
// behave bit-identically to a freshly constructed engine with Seed s, in
// both the per-draw (V=H) and skip-sampling (V>H) modes.
func TestReseedReproducesFreshEngine(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	for _, v := range []int{0, 10 * dom.Size()} {
		cfg := core.Config{Epsilon: 0.05, Delta: 0.05, V: v, Seed: 77}
		fresh := core.New(dom, cfg)
		reused := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, V: v, Seed: 1234})
		// Dirty the reused engine with unrelated traffic, then rewind.
		r := fastrand.New(8)
		for i := 0; i < 30000; i++ {
			reused.Update(uint32(r.Uint64n(1 << 16)))
		}
		reused.Reset()
		reused.Reseed(77)

		r2 := fastrand.New(9)
		for i := 0; i < 100000; i++ {
			k := uint32(r2.Uint64n(1 << 12))
			fresh.Update(k)
			reused.Update(k)
		}
		a := fresh.Output(0.05)
		b := reused.Output(0.05)
		if len(a) != len(b) {
			t.Fatalf("V=%d: %d vs %d results", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("V=%d result %d: %+v vs %+v", v, i, a[i], b[i])
			}
		}
		for node := 0; node < dom.Size(); node++ {
			if fresh.NodeUpdates(node) != reused.NodeUpdates(node) {
				t.Fatalf("V=%d node %d: %d vs %d updates — sampling diverged",
					v, node, fresh.NodeUpdates(node), reused.NodeUpdates(node))
			}
		}
	}
}

// TestSnapshotMergerMatchesExtractSnapshots: merging snapshots through a
// reused merger then querying equals the union read over one-shot snapshots
// of the live engines.
func TestSnapshotMergerMatchesExtractSnapshots(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	engines := make([]*core.Engine[uint64], 3)
	for i := range engines {
		engines[i] = core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: uint64(i + 1)})
	}
	r := fastrand.New(10)
	for i := 0; i < 200000; i++ {
		engines[i%3].Update(gen2D(r))
	}
	fresh := make([]*core.EngineSnapshot[uint64], len(engines))
	for i, e := range engines {
		fresh[i] = e.Snapshot()
	}
	want := core.NewExtractor(dom).ExtractSnapshots(fresh, 0.05)

	var sm core.SnapshotMerger[uint64]
	var merged core.EngineSnapshot[uint64]
	snaps := make([]*core.EngineSnapshot[uint64], len(engines))
	bufs := make([]core.EngineSnapshot[uint64], len(engines))
	for round := 0; round < 2; round++ { // second round exercises buffer reuse
		for i, e := range engines {
			snaps[i] = e.SnapshotInto(&bufs[i])
		}
		sm.Merge(&merged, snaps...)
		got := merged.Output(dom, 0.05)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d vs %d results", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d result %d differs", round, i)
			}
		}
	}
}

func TestEngineSnapshotCodecRoundTrip(t *testing.T) {
	t.Run("uint32", func(t *testing.T) {
		dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
		eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 1})
		r := fastrand.New(11)
		for i := 0; i < 60000; i++ {
			eng.Update(uint32(r.Uint64n(1 << 12)))
		}
		roundTrip(t, dom, eng)
	})
	t.Run("uint64", func(t *testing.T) {
		dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
		eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 2})
		r := fastrand.New(12)
		for i := 0; i < 60000; i++ {
			eng.Update(gen2D(r))
		}
		roundTrip(t, dom, eng)
	})
	t.Run("Addr", func(t *testing.T) {
		dom := hierarchy.NewIPv6OneDim(hierarchy.Bytes)
		eng := core.New(dom, core.Config{Epsilon: 0.1, Delta: 0.1, Seed: 3})
		r := fastrand.New(13)
		for i := 0; i < 60000; i++ {
			eng.Update(hierarchy.Addr{Hi: r.Uint64n(1 << 20), Lo: r.Uint64()})
		}
		roundTrip(t, dom, eng)
	})
	t.Run("AddrPair", func(t *testing.T) {
		dom := hierarchy.NewIPv6TwoDim(hierarchy.Bytes)
		eng := core.New(dom, core.Config{Epsilon: 0.1, Delta: 0.1, Seed: 4})
		r := fastrand.New(14)
		for i := 0; i < 60000; i++ {
			eng.Update(hierarchy.AddrPair{
				Src: hierarchy.Addr{Hi: r.Uint64n(1 << 16)},
				Dst: hierarchy.Addr{Hi: r.Uint64n(1 << 16)},
			})
		}
		roundTrip(t, dom, eng)
	})
}

func roundTrip[K comparable](t *testing.T, dom *hierarchy.Domain[K], eng *core.Engine[K]) {
	t.Helper()
	es := eng.Snapshot()
	enc, err := es.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, rest, err := core.DecodeEngineSnapshot[K](enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	re, err := dec.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatal("re-encoding is not bit-identical")
	}
	a := es.Output(dom, 0.1)
	b := dec.Output(dom, 0.1)
	if len(a) != len(b) {
		t.Fatalf("decoded snapshot query differs: %d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decoded snapshot result %d differs", i)
		}
	}
	// Truncations are rejected.
	for _, cut := range []int{0, 1, 5, len(enc) / 2, len(enc) - 1} {
		if _, _, err := core.DecodeEngineSnapshot[K](enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestEngineLoadSnapshotRoundtrip: LoadSnapshot must restore an equally
// configured engine to a state whose queries are bit-identical to the
// source's at capture time, and the restored engine must keep counting from
// the snapshot's N. This is the restore half of snapshot-driven persistence
// (cmd/hhh and cmd/vswitchd checkpoints).
func TestEngineLoadSnapshotRoundtrip(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	cfg := core.Config{Epsilon: 0.02, Delta: 0.05, V: 2 * dom.Size(), Seed: 9}
	src := core.New(dom, cfg)
	r := fastrand.New(21)
	for i := 0; i < 120000; i++ {
		src.UpdateWeighted(gen2D(r), 1+r.Uint64n(3))
	}
	// Ship through the wire format, as the checkpoint files do.
	buf, err := src.Snapshot().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	es, rest, err := core.DecodeEngineSnapshot[uint64](buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	dst := core.New(dom, cfg)
	if err := dst.LoadSnapshot(es); err != nil {
		t.Fatal(err)
	}
	if dst.N() != src.N() || dst.Weight() != src.Weight() {
		t.Fatalf("restored N=%d W=%d, want N=%d W=%d", dst.N(), dst.Weight(), src.N(), src.Weight())
	}
	for _, theta := range []float64{0.02, 0.1} {
		a := src.Output(theta)
		b := dst.Output(theta)
		if len(a) != len(b) {
			t.Fatalf("theta=%v: %d vs %d results", theta, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("theta=%v result %d: %+v vs %+v", theta, i, a[i], b[i])
			}
		}
	}
	// The restored engine keeps absorbing traffic on top of the snapshot.
	before := dst.Weight()
	for i := 0; i < 1000; i++ {
		dst.Update(gen2D(r))
	}
	if dst.Weight() != before+1000 {
		t.Fatalf("weight after restore+update = %d, want %d", dst.Weight(), before+1000)
	}

	// Config mismatches are rejected.
	other := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, V: 2 * dom.Size(), Seed: 9})
	if err := other.LoadSnapshot(es); err == nil {
		t.Fatal("ε mismatch accepted")
	}
	vMismatch := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: 9})
	if err := vMismatch.LoadSnapshot(es); err == nil {
		t.Fatal("V mismatch accepted")
	}
}
