package core_test

import (
	"runtime"
	"testing"
	"weak"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// TestPublishSnapshotMatchesSnapshot: a published snapshot must answer
// queries bit-identically to a plain SnapshotInto capture of the same engine
// state, across a chain of publications with traffic in between.
func TestPublishSnapshotMatchesSnapshot(t *testing.T) {
	for _, backend := range []core.Backend{core.SpaceSavingBackend, core.CHKBackend} {
		dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
		eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: 11, Backend: backend})
		r := fastrand.New(12)
		var pub *core.EngineSnapshot[uint64]
		for round := 0; round < 6; round++ {
			for i := 0; i < 20000; i++ {
				eng.Update(gen2D(r))
			}
			pub = eng.PublishSnapshot(pub)
			ref := eng.Snapshot()
			for _, theta := range []float64{0.02, 0.1} {
				a := pub.Output(dom, theta)
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
	}
}

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
		var slot *core.PubSlot[uint64]
		for round := 0; round < 12; round++ {
			for i := 0; i < 5000; i++ {
				eng.Update(gen2D(r))
			}
			slot = ring.Publish(slot)
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
	var slot *core.PubSlot[uint64]
	for round := 0; round < 5; round++ {
		for i := 0; i < 10000; i++ {
			eng.Update(gen2D(r))
		}
		slot = ring.Publish(slot)
	}
	held := slot
	held.Pin()
	before := held.Snapshot().Output(dom, 0.05)
	beforeN := held.Snapshot().Weight
	for round := 0; round < 8; round++ {
		for i := 0; i < 10000; i++ {
			eng.Update(gen2D(r))
		}
		slot = ring.Publish(slot)
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
		slot = ring.Publish(slot)
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
	var slot *core.PubSlot[uint64]
	// seen tracks every slot the ring hands out without keeping it alive.
	seen := map[weak.Pointer[core.PubSlot[uint64]]]bool{}
	publish := func(n int) {
		for range n {
			for i := 0; i < 256; i++ {
				eng.Update(gen2D(r))
			}
			slot = ring.Publish(slot)
			seen[weak.Make(slot)] = true
		}
	}
	// holdAcross pins the current publication while four more go out, so
	// the slot added for it is also published while the pin is held.
	holdAcross := func() {
		held := slot
		held.Pin()
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
	a, b := slot.Snapshot().Output(dom, 0.05), ref.Output(dom, 0.05)
	if len(a) != len(b) {
		t.Fatalf("publication after dropping the spare: %d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("publication after dropping the spare, result %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPubRingSteadyState: an idle republish returns the same slot, and a warm
// one-packet publish cycle allocates nothing — the whole point of the ring
// over PublishSnapshot's allocate-per-epoch scheme.
func TestPubRingSteadyState(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 51})
	ring := core.NewPubRing(eng)
	r := fastrand.New(52)
	var slot *core.PubSlot[uint64]
	for round := 0; round < 8; round++ {
		for i := 0; i < 10000; i++ {
			eng.Update(gen2D(r))
		}
		slot = ring.Publish(slot)
	}
	if again := ring.Publish(slot); again != slot {
		t.Fatal("idle republish returned a different slot")
	}
	// At a realistic cadence every node changes between publications, so no
	// node buffer is shared across epochs and the whole cycle reuses the
	// recycled slot's arrays: zero allocations.
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2048; i++ {
			eng.Update(gen2D(r))
		}
		slot = ring.Publish(slot)
	}); allocs != 0 {
		t.Fatalf("warm burst publish cycle allocates %v per run, want 0", allocs)
	}
	// A one-packet publish can still hit the alias guard (the recycled
	// slot's array for the one changed node may be shared with prev via an
	// unchanged chain), costing at most the three fresh arrays for that node.
	if allocs := testing.AllocsPerRun(200, func() {
		eng.Update(gen2D(r))
		slot = ring.Publish(slot)
	}); allocs > 3 {
		t.Fatalf("one-packet publish cycle allocates %v per run, want <= 3", allocs)
	}
}

// TestPublishSnapshotImmutable: earlier publication epochs must not change
// when the engine keeps updating and publishing newer epochs — even though
// newer epochs alias unchanged node buffers of older ones.
func TestPublishSnapshotImmutable(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: 21})
	r := fastrand.New(22)
	for i := 0; i < 60000; i++ {
		eng.Update(gen2D(r))
	}
	old := eng.PublishSnapshot(nil)
	before := old.Output(dom, 0.05)
	cur := old
	for round := 0; round < 4; round++ {
		for i := 0; i < 30000; i++ {
			eng.Update(gen2D(r))
		}
		cur = eng.PublishSnapshot(cur)
	}
	after := old.Output(dom, 0.05)
	if len(before) != len(after) {
		t.Fatalf("old epoch changed under later publications: %d vs %d results", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("old epoch result %d changed under later publications", i)
		}
	}
}

// TestPublishSnapshotIdleAndSharing: an idle republish returns prev itself;
// a small traffic delta shares the untouched nodes' buffers and generations
// with the previous epoch and recopies only the touched nodes.
func TestPublishSnapshotIdleAndSharing(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, V: 10 * dom.Size(), Seed: 31})
	r := fastrand.New(32)
	for i := 0; i < 100000; i++ {
		eng.Update(gen2D(r))
	}
	a := eng.PublishSnapshot(nil)
	if got := eng.PublishSnapshot(a); got != a {
		t.Fatalf("idle republish allocated a new snapshot")
	}
	// One packet updates at most R lattice nodes (here R=1), so the next
	// epoch must share almost every node with the previous one.
	eng.Update(gen2D(r))
	b := eng.PublishSnapshot(a)
	if b == a {
		t.Fatalf("republish after traffic returned the stale epoch")
	}
	if b.Gen() == a.Gen() {
		t.Fatalf("changed epoch kept the snapshot generation")
	}
	shared, changed := 0, 0
	for i := range b.Nodes {
		if b.Nodes[i].Gen() == a.Nodes[i].Gen() {
			if b.Nodes[i].N != a.Nodes[i].N {
				t.Fatalf("node %d shares a generation with different N", i)
			}
			shared++
		} else {
			changed++
		}
	}
	if shared < dom.Size()-1 {
		t.Fatalf("one packet changed %d of %d nodes; want at most 1", changed, dom.Size())
	}
	if changed == 0 && b.Packets == a.Packets {
		t.Fatalf("publication recorded no change at all")
	}
}

// TestMergerGenSkipAcrossPublications: the merger's unchanged-input skips key
// on generations, not pointers, so republished snapshots (fresh pointers,
// shared node buffers) keep the whole-merge skip when idle and re-merge only
// touched nodes after a delta — while staying bit-identical to a cold merge.
func TestMergerGenSkipAcrossPublications(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	engines := make([]*core.Engine[uint64], 3)
	for i := range engines {
		engines[i] = core.New(dom, core.Config{Epsilon: 0.05, Delta: 0.05, Seed: uint64(41 + i)})
	}
	r := fastrand.New(44)
	pubs := make([]*core.EngineSnapshot[uint64], len(engines))
	feed := func(n int) {
		for i := 0; i < n; i++ {
			engines[i%len(engines)].Update(gen2D(r))
		}
	}
	feed(150000)
	for i, e := range engines {
		pubs[i] = e.PublishSnapshot(pubs[i])
	}

	var sm core.SnapshotMerger[uint64]
	var merged core.EngineSnapshot[uint64]
	sm.Merge(&merged, pubs...)
	gen0 := merged.Gen()

	// Idle republish: fresh pointers are irrelevant, generations match, the
	// whole merge is skipped and the destination generation survives.
	for i, e := range engines {
		pubs[i] = e.PublishSnapshot(pubs[i])
	}
	sm.Merge(&merged, pubs...)
	if merged.Gen() != gen0 {
		t.Fatalf("idle republish defeated the whole-merge skip")
	}

	// Small delta: the merge must pick up the change and stay bit-identical
	// to a cold merge of the same inputs.
	feed(50)
	for i, e := range engines {
		pubs[i] = e.PublishSnapshot(pubs[i])
	}
	sm.Merge(&merged, pubs...)
	if merged.Gen() == gen0 {
		t.Fatalf("changed inputs did not refresh the merged snapshot")
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
