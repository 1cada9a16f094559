package core_test

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// TestPubRingMatchesSnapshot: ring publications must answer queries
// bit-identically to a plain SnapshotInto capture of the same engine state,
// across enough publications that slot recycling is exercised, and the ring
// must stabilize at a handful of slots instead of allocating per epoch.
func TestPubRingMatchesSnapshot(t *testing.T) {
	for _, backend := range []core.Backend{core.SpaceSavingBackend, core.CHKBackend} {
		dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
		eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: 11, Backend: backend})
		ring := core.NewPubRing(eng)
		r := fastrand.New(12)
		for round := 0; round < 12; round++ {
			for i := 0; i < 5000; i++ {
				eng.Update(gen2D(r))
			}
			ring.Publish()
			slot := ring.Current()
			ref := eng.Snapshot()
			for _, theta := range []float64{0.02, 0.1} {
				a := slot.Snapshot().Output(dom, theta)
				b := ref.Output(dom, theta)
				if len(a) != len(b) {
					t.Fatalf("backend=%d round=%d theta=%v: %d vs %d results", backend, round, theta, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("backend=%d round=%d theta=%v result %d: %+v vs %+v",
							backend, round, theta, i, a[i], b[i])
					}
				}
			}
		}
		if ring.Slots() > 4 {
			t.Fatalf("backend=%d: ring grew to %d slots over 12 publications, want recycling to cap it at <= 4", backend, ring.Slots())
		}
	}
}

// TestPubRingPinnedSlotStable: a pinned slot's snapshot must keep its exact
// content while the producer keeps publishing and recycling around it, and
// the ring must absorb the held pin by allocating at most one extra slot.
func TestPubRingPinnedSlotStable(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 41})
	ring := core.NewPubRing(eng)
	r := fastrand.New(42)
	for round := 0; round < 5; round++ {
		for i := 0; i < 10000; i++ {
			eng.Update(gen2D(r))
		}
		ring.Publish()
	}
	held, _ := ring.Pin()
	before := held.Snapshot().Output(dom, 0.05)
	beforeN := held.Snapshot().Weight
	for round := 0; round < 8; round++ {
		for i := 0; i < 10000; i++ {
			eng.Update(gen2D(r))
		}
		ring.Publish()
	}
	after := held.Snapshot().Output(dom, 0.05)
	if held.Snapshot().Weight != beforeN {
		t.Fatalf("pinned slot weight changed: %d -> %d", beforeN, held.Snapshot().Weight)
	}
	if len(before) != len(after) {
		t.Fatalf("pinned slot changed under publication: %d vs %d results", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pinned slot result %d changed under publication", i)
		}
	}
	if ring.Slots() > 5 {
		t.Fatalf("ring grew to %d slots with one pin held, want <= 5", ring.Slots())
	}
	held.Unpin()
	for round := 0; round < 4; round++ {
		for i := 0; i < 10000; i++ {
			eng.Update(gen2D(r))
		}
		ring.Publish()
	}
	if ring.Slots() > 5 {
		t.Fatalf("ring kept growing after the pin was released: %d slots", ring.Slots())
	}
}

// TestPubRingDropsIdleSpare: the slot a pin held across two publications
// forces the ring to add is kept while pins keep needing it and dropped once
// it has gone unused for a while, so the ring's footprint returns to three
// slots instead of depending on whether some reader was ever slow.
func TestPubRingDropsIdleSpare(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 61})
	ring := core.NewPubRing(eng)
	r := fastrand.New(62)
	// seen tracks every slot the ring hands out without keeping it alive.
	seen := map[weak.Pointer[core.PubSlot[uint64]]]bool{}
	publish := func(n int) {
		for range n {
			for i := 0; i < 256; i++ {
				eng.Update(gen2D(r))
			}
			ring.Publish()
			seen[weak.Make(ring.Current())] = true
		}
	}
	// holdAcross pins the current publication while four more go out, so
	// the slot added for it is also published while the pin is held.
	holdAcross := func() {
		held, _ := ring.Pin()
		publish(4)
		held.Unpin()
	}
	publish(5)
	if got := ring.Slots(); got != 3 {
		t.Fatalf("warm ring has %d slots without pins, want 3", got)
	}
	holdAcross()
	if got := ring.Slots(); got != 4 {
		t.Fatalf("ring has %d slots after a pin held across two publications, want 4", got)
	}
	// Long pins a few publications apart share the spare: it is neither
	// dropped between them nor allocated again for each.
	for range 10 {
		publish(8)
		if got := ring.Slots(); got != 4 {
			t.Fatalf("ring has %d slots 8 publications after a long pin, want the spare kept (4)", got)
		}
		holdAcross()
		if got := ring.Slots(); got != 4 {
			t.Fatalf("ring has %d slots under recurring long pins, want 4", got)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("ring handed out %d distinct slots under recurring long pins, want 4", len(seen))
	}
	// Once no pin needs it, the spare goes.
	publish(30)
	if got := ring.Slots(); got != 3 {
		t.Fatalf("ring has %d slots 30 publications after the last long pin, want 3", got)
	}
	// And nothing keeps it alive: only the ring's three slots survive GC.
	runtime.GC()
	live := 0
	for p := range seen {
		if p.Value() != nil {
			live++
		}
	}
	runtime.KeepAlive(ring)
	if live != 3 {
		t.Fatalf("%d of the %d slots handed out survive GC, want 3", live, len(seen))
	}
	ref := eng.Snapshot()
	a, b := ring.Current().Snapshot().Output(dom, 0.05), ref.Output(dom, 0.05)
	if len(a) != len(b) {
		t.Fatalf("publication after dropping the spare: %d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("publication after dropping the spare, result %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPubRingSteadyState: an idle republish keeps the same slot, and a warm
// publish cycle allocates nothing — the whole point of the ring over
// allocating a snapshot per epoch.
func TestPubRingSteadyState(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 51})
	ring := core.NewPubRing(eng)
	r := fastrand.New(52)
	for round := 0; round < 8; round++ {
		for i := 0; i < 10000; i++ {
			eng.Update(gen2D(r))
		}
		ring.Publish()
	}
	slot := ring.Current()
	if ring.Publish() || ring.Current() != slot {
		t.Fatal("idle republish moved to a different slot")
	}
	// At a realistic cadence every node changes between publications, so no
	// node buffer is shared across epochs and the whole cycle reuses the
	// recycled slot's arrays: zero allocations.
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2048; i++ {
			eng.Update(gen2D(r))
		}
		ring.Publish()
	}); allocs != 0 {
		t.Fatalf("warm burst publish cycle allocates %v per run, want 0", allocs)
	}
	// A one-packet publish can still hit the alias guard (the recycled
	// slot's array for the one changed node may be shared with prev via an
	// unchanged chain), costing at most the three fresh arrays for that node.
	if allocs := testing.AllocsPerRun(200, func() {
		eng.Update(gen2D(r))
		ring.Publish()
	}); allocs > 3 {
		t.Fatalf("one-packet publish cycle allocates %v per run, want <= 3", allocs)
	}
}

// TestPublishSnapshotIdleAndSharing: an idle publish keeps the epoch and
// the slot; after one packet the new publication shares every untouched
// node's buffers and generation with the previous one and recopies only the
// touched node.
func TestPublishSnapshotIdleAndSharing(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, V: 10 * dom.Size(), Seed: 31})
	r := fastrand.New(32)
	for i := 0; i < 100000; i++ {
		eng.Update(gen2D(r))
	}
	ring := core.NewPubRing(eng)
	a := ring.Current().Snapshot()
	if ring.Publish() || ring.Epoch() != 0 || ring.Current().Snapshot() != a {
		t.Fatalf("idle publish moved the publication (epoch %d)", ring.Epoch())
	}
	// One packet updates at most R lattice nodes (here R=1), so the next
	// epoch must share almost every node with the previous one.
	eng.Update(gen2D(r))
	if !ring.Publish() || ring.Epoch() != 1 {
		t.Fatalf("publish after traffic kept the stale epoch (epoch %d)", ring.Epoch())
	}
	b := ring.Current().Snapshot()
	if b == a {
		t.Fatalf("publish after traffic reused the stale slot")
	}
	if b.Gen() == a.Gen() {
		t.Fatalf("changed epoch kept the snapshot generation")
	}
	shared, changed := 0, 0
	for i := range b.Nodes {
		if b.Nodes[i].Gen() != a.Nodes[i].Gen() {
			changed++
			continue
		}
		if b.Nodes[i].N != a.Nodes[i].N {
			t.Fatalf("node %d shares a generation with different N", i)
		}
		if unsafe.SliceData(b.Nodes[i].Keys) != unsafe.SliceData(a.Nodes[i].Keys) ||
			unsafe.SliceData(b.Nodes[i].Upper) != unsafe.SliceData(a.Nodes[i].Upper) ||
			unsafe.SliceData(b.Nodes[i].Lower) != unsafe.SliceData(a.Nodes[i].Lower) {
			t.Fatalf("node %d keeps its generation but not its buffers", i)
		}
		shared++
	}
	if shared < dom.Size()-1 {
		t.Fatalf("one packet changed %d of %d nodes; want at most 1", changed, dom.Size())
	}
	if changed == 0 && b.Packets == a.Packets {
		t.Fatalf("publication recorded no change at all")
	}
}

// TestPubRingKeepsLastTwoUnpinned: a reader can pass Pin's handshake on
// either of the last two publications before its pin is visible to the
// producer, so the publication two behind the current one must still hold
// its content, unpinned, while the next one is written. One-packet
// publications make every node's buffers travel between slots.
func TestPubRingKeepsLastTwoUnpinned(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 71})
	r := fastrand.New(72)
	for i := 0; i < 2000; i++ {
		eng.Update(gen2D(r))
	}
	ring := core.NewPubRing(eng)
	type pub struct {
		snap *core.EngineSnapshot[uint64]
		copy core.EngineSnapshot[uint64]
	}
	var last [2]pub // the publications one and two behind
	for round := 0; round < 3000; round++ {
		eng.Update(gen2D(r))
		ring.Publish()
		for _, p := range last {
			if p.snap != nil && !sameNodes(p.snap, &p.copy) {
				t.Fatalf("round %d: a publication within two of the current one changed", round)
			}
		}
		last[1] = last[0]
		cur := ring.Current().Snapshot()
		last[0] = pub{snap: cur}
		last[0].copy.CopyFrom(cur)
	}
}

func sameNodes(a, b *core.EngineSnapshot[uint64]) bool {
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if !slices.Equal(x.Keys, y.Keys) || !slices.Equal(x.Upper, y.Upper) || !slices.Equal(x.Lower, y.Lower) {
			return false
		}
	}
	return true
}

// TestMergerGenSkipAcrossPublications: the merger's unchanged-input skips key
// on generations, not pointers. Ring publications move to a fresh slot after
// a delta but share the untouched nodes' buffers and generations, so an idle
// merge keeps the whole-merge skip and a merge after a delta re-merges only
// the touched nodes, while staying bit-identical to a cold merge.
func TestMergerGenSkipAcrossPublications(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	engines := make([]*core.Engine[uint64], 3)
	rings := make([]*core.PubRing[uint64], len(engines))
	for i := range engines {
		engines[i] = core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: uint64(41 + i)})
		rings[i] = core.NewPubRing(engines[i])
	}
	r := fastrand.New(44)
	pubs := make([]*core.EngineSnapshot[uint64], len(engines))
	feed := func(n int) {
		for i := 0; i < n; i++ {
			engines[i%len(engines)].Update(gen2D(r))
		}
	}
	publish := func() (changed int) {
		for i, ring := range rings {
			if ring.Publish() {
				changed++
			}
			pubs[i] = ring.Current().Snapshot()
		}
		return changed
	}
	feed(150000)
	publish()

	var sm core.SnapshotMerger[uint64]
	var merged core.EngineSnapshot[uint64]
	sm.Merge(&merged, pubs...)
	gen0 := merged.Gen()

	// Idle publish: nothing changes, the whole merge is skipped and the
	// destination generation survives.
	if n := publish(); n != 0 {
		t.Fatalf("idle publish moved %d rings", n)
	}
	sm.Merge(&merged, pubs...)
	if merged.Gen() != gen0 {
		t.Fatalf("idle republish defeated the whole-merge skip")
	}

	// Small delta: every ring moves to a fresh slot, and the merge must pick
	// up the change, keep the nodes no input touched, and stay
	// bit-identical to a cold merge of the same inputs.
	before := slices.Clone(pubs)
	var mergedGens []uint64
	for i := range merged.Nodes {
		mergedGens = append(mergedGens, merged.Nodes[i].Gen())
	}
	feed(30)
	if n := publish(); n != len(rings) {
		t.Fatalf("delta moved %d of %d rings", n, len(rings))
	}
	sm.Merge(&merged, pubs...)
	if merged.Gen() == gen0 {
		t.Fatalf("changed inputs did not refresh the merged snapshot")
	}
	kept := 0
	for node := range merged.Nodes {
		touched := false
		for i := range pubs {
			if pubs[i] == before[i] {
				t.Fatalf("ring %d published into the same slot", i)
			}
			touched = touched || pubs[i].Nodes[node].Gen() != before[i].Nodes[node].Gen()
		}
		if !touched {
			if merged.Nodes[node].Gen() != mergedGens[node] {
				t.Fatalf("node %d: no input changed but the merge redid it", node)
			}
			kept++
		}
	}
	if kept == 0 {
		t.Fatalf("30 packets touched every node; the per-node skip went unexercised")
	}
	var cold core.SnapshotMerger[uint64]
	want := cold.Merge(nil, pubs...)
	a := merged.Output(dom, 0.05)
	b := want.Output(dom, 0.05)
	if len(a) != len(b) {
		t.Fatalf("incremental merge diverged: %d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("incremental merge result %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
