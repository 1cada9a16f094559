package core_test

import (
	"fmt"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/exact"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// chkCfg builds an engine config selecting the CHK backend.
func chkCfg(dom interface{ Size() int }, vMult int, seed uint64) core.Config {
	return core.Config{
		Epsilon: 0.05, Delta: 0.05, V: vMult * dom.Size(), Seed: seed,
		Backend: core.CHKBackend,
	}
}

// TestCHKBackendSelected: the CHK config counts with CHK sketches and stays
// snapshottable.
func TestCHKBackendSelected(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	eng := core.New(dom, chkCfg(dom, 1, 1))
	if !eng.UsesCHKBackend() {
		t.Fatal("CHKBackend config did not select the CHK sketches")
	}
	if eng.UsesConcreteBackend() {
		t.Fatal("CHK engine also holds Space Saving summaries")
	}
	if es := eng.Snapshot(); len(es.Nodes) != dom.Size() {
		t.Fatalf("CHK snapshot has %d nodes, want %d", len(es.Nodes), dom.Size())
	}
}

// TestCHKBatchMatchesSequential: the node-grouped batch path over CHK
// sketches is bit-identical to per-packet updates — grouping permutes order
// across nodes but preserves it within each node, and each node owns its own
// decay RNG, so state transitions replay exactly.
func TestCHKBatchMatchesSequential(t *testing.T) {
	gen1 := func(r *fastrand.Source) uint32 { return uint32(r.Uint64n(1 << 14)) }
	gen2 := func(r *fastrand.Source) uint64 {
		return hierarchy.Pack2D(uint32(r.Uint64n(1<<10)), uint32(r.Uint64n(1<<10)))
	}
	run := func(t *testing.T, dom *hierarchy.Domain[uint32], vMult int, weighted bool) {
		runCHKBatchDifferential(t, dom, gen1, vMult, weighted)
	}
	for _, vMult := range []int{1, 10} {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("1D-Bytes/V=%dH/weighted=%v", vMult, weighted), func(t *testing.T) {
				run(t, hierarchy.NewIPv4OneDim(hierarchy.Bytes), vMult, weighted)
			})
			t.Run(fmt.Sprintf("2D-Bytes/V=%dH/weighted=%v", vMult, weighted), func(t *testing.T) {
				runCHKBatchDifferential(t, hierarchy.NewIPv4TwoDim(hierarchy.Bytes), gen2, vMult, weighted)
			})
		}
	}
}

func runCHKBatchDifferential[K comparable](t *testing.T, dom *hierarchy.Domain[K], gen func(*fastrand.Source) K, vMult int, weighted bool) {
	cfg := chkCfg(dom, vMult, 1234)
	seq := core.New(dom, cfg)
	bat := core.New(dom, cfg)
	if !bat.UsesCHKBackend() {
		t.Fatal("differential needs the CHK backend")
	}
	r := fastrand.New(4321)
	var seqSnap, batSnap core.EngineSnapshot[K]
	for round := 0; round < 3; round++ {
		for _, n := range []int{1, 63, 64, 65, 4096} {
			keys := make([]K, n)
			ws := make([]uint64, n)
			for i := range keys {
				keys[i] = gen(r)
				switch r.Uint64n(8) {
				case 0:
					ws[i] = 0
				case 1:
					ws[i] = 1 + r.Uint64n(1000)
				default:
					ws[i] = 1 + r.Uint64n(4)
				}
			}
			if weighted {
				for i, k := range keys {
					seq.UpdateWeighted(k, ws[i])
				}
				bat.UpdateWeightedBatch(keys, ws)
			} else {
				for _, k := range keys {
					seq.Update(k)
				}
				bat.UpdateBatch(keys)
			}
			tag := fmt.Sprintf("chk V=%dH weighted=%v n=%d round=%d", vMult, weighted, n, round)
			mustEqualSnapshots(t, tag, seq.SnapshotInto(&seqSnap), bat.SnapshotInto(&batSnap))
		}
	}
}

// TestCHKEngineOutputFindsHeavies: an end-to-end accuracy check against the
// exact oracle — a CHK-backed engine's HHH output at θ must recall the
// planted heavy prefixes. CHK under-estimates, so anything reported is a
// true heavy (no false positives vs the exact conditioned set is not
// guaranteed — RHHH itself admits ε slack — but recall of clear heavies is).
func TestCHKEngineOutputFindsHeavies(t *testing.T) {
	const theta = 0.05
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	eng := core.New(dom, chkCfg(dom, 1, 7))
	oracle := exact.New(dom)
	r := fastrand.New(99)
	heavy := uint32(0x0a0b0c0d)
	for i := 0; i < 400_000; i++ {
		var k uint32
		if r.Uint64n(10) < 3 { // 30% of the stream on one /32
			k = heavy
		} else {
			k = uint32(r.Uint64n(1 << 28))
		}
		eng.Update(k)
		oracle.Add(k)
	}
	out := eng.Output(theta)
	found := false
	for _, res := range out {
		if res.Key == heavy && res.Node == dom.FullNode() {
			found = true
			f := float64(oracle.Frequency(heavy, dom.FullNode()))
			if res.Upper > f*1.25 {
				t.Errorf("heavy upper bound %.0f far above true %.0f", res.Upper, f)
			}
			if res.Lower <= 0 {
				t.Errorf("heavy lower bound %.0f, want > 0", res.Lower)
			}
		}
	}
	if !found {
		t.Fatalf("planted heavy /32 missing from CHK engine output (%d results)", len(out))
	}
}

// TestCHKEngineSnapshotRoundtrip: snapshot → binary codec → fresh CHK engine
// restore. Reload may re-home equal-count keys into different slots, so
// per-node comparison is as key→count sets, not entry order.
func TestCHKEngineSnapshotRoundtrip(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, chkCfg(dom, 1, 11))
	r := fastrand.New(12)
	for i := 0; i < 300_000; i++ {
		eng.Update(hierarchy.Pack2D(uint32(r.Uint64n(1<<12)), uint32(r.Uint64n(1<<12))))
	}
	snap := eng.Snapshot()
	enc, err := snap.AppendBinary(nil)
	if err != nil {
		t.Fatalf("AppendBinary: %v", err)
	}
	dec, rest, err := core.DecodeEngineSnapshot[uint64](enc)
	if err != nil {
		t.Fatalf("DecodeEngineSnapshot: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d trailing bytes", len(rest))
	}
	fresh := core.New(dom, chkCfg(dom, 1, 999)) // different seed on purpose
	if err := fresh.LoadSnapshot(dec); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if fresh.N() != eng.N() || fresh.Weight() != eng.Weight() {
		t.Fatalf("restored N/Weight (%d,%d), want (%d,%d)",
			fresh.N(), fresh.Weight(), eng.N(), eng.Weight())
	}
	re := fresh.Snapshot()
	if len(re.Nodes) != len(snap.Nodes) {
		t.Fatalf("restored %d nodes, want %d", len(re.Nodes), len(snap.Nodes))
	}
	for n := range snap.Nodes {
		a, b := &snap.Nodes[n], &re.Nodes[n]
		if a.N != b.N || len(a.Keys) != len(b.Keys) {
			t.Fatalf("node %d: N=%d len=%d vs N=%d len=%d", n, a.N, len(a.Keys), b.N, len(b.Keys))
		}
		want := make(map[uint64]uint64, len(a.Keys))
		for i, k := range a.Keys {
			want[k] = a.Upper[i]
		}
		for i, k := range b.Keys {
			if want[k] != b.Upper[i] {
				t.Fatalf("node %d key %d: restored count %d, want %d", n, k, b.Upper[i], want[k])
			}
		}
	}
	// The restored engine keeps taking updates and answering queries.
	fresh.Update(hierarchy.Pack2D(1, 1))
	_ = fresh.Output(0.01)
}

// TestCHKEngineMerge: CHK snapshots flow through the engine-level merger —
// the snapshot is the backend-agnostic currency, so sharded deployments work
// unchanged on CHK.
func TestCHKEngineMerge(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	a := core.New(dom, chkCfg(dom, 1, 21))
	b := core.New(dom, chkCfg(dom, 1, 22))
	r := fastrand.New(23)
	for i := 0; i < 100_000; i++ {
		k := uint32(r.Uint64n(1 << 10))
		a.Update(k)
		b.Update(uint32(r.Uint64n(1 << 10)))
		_ = k
	}
	var sm core.SnapshotMerger[uint32]
	merged := sm.Merge(nil, a.Snapshot(), b.Snapshot())
	if merged.Packets != a.N()+b.N() {
		t.Fatalf("merged packets %d, want %d", merged.Packets, a.N()+b.N())
	}
	if out := merged.Output(dom, 0.01); len(out) == 0 {
		t.Fatal("merged CHK snapshot produced no HHH output")
	}
}

// TestCHKEngineResetReseed: Reset + Reseed with the construction seed
// replays a CHK engine bit-identically — the per-node decay RNGs restart
// from the same derivation New used.
func TestCHKEngineResetReseed(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	const seed = 31
	eng := core.New(dom, chkCfg(dom, 1, seed))
	feed := func() {
		r := fastrand.New(32)
		for i := 0; i < 150_000; i++ {
			eng.Update(uint32(r.Uint64n(1 << 11)))
		}
	}
	feed()
	var first, second core.EngineSnapshot[uint32]
	eng.SnapshotInto(&first)
	// SnapshotInto reuses dst arrays; take a deep copy via the codec.
	enc, err := first.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	firstCopy, _, err := core.DecodeEngineSnapshot[uint32](enc)
	if err != nil {
		t.Fatal(err)
	}
	eng.Reset()
	eng.Reseed(seed)
	feed()
	mustEqualSnapshots(t, "reset+reseed", firstCopy, eng.SnapshotInto(&second))
}
