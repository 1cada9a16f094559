package vswitch

import (
	"math"
	"sync"
	"testing"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
)

// TestCollectorWatch checks the collector's standing query: an admitted
// event arrives once samples make a prefix heavy, no events arrive while the
// collector is idle, and replaying the delta stream tracks Output exactly.
func TestCollectorWatch(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	col := NewCollector(dom, 0.02, 0.05, dom.Size())

	type ident struct {
		node int
		key  uint64
	}
	var mu sync.Mutex
	replay := map[ident]core.Result[uint64]{}
	var deltas int
	w := col.Watch(0.2, 0, 2*time.Millisecond, func(d CollectorDelta) {
		mu.Lock()
		defer mu.Unlock()
		deltas++
		for _, r := range d.Retired {
			delete(replay, ident{r.Node, r.Key})
		}
		for _, r := range d.Admitted {
			replay[ident{r.Node, r.Key}] = r
		}
		for _, r := range d.Updated {
			replay[ident{r.Node, r.Key}] = r
		}
	})
	defer w.Close()

	// One dominant key sampled across every node.
	key := uint64(ip4(181, 7, 3, 1))<<32 | uint64(ip4(10, 0, 0, 9))
	masks, ok := dom.MaskTable()
	if !ok {
		t.Fatal("2D IPv4 domain should have a mask table")
	}
	var batch []Sample
	for node := 0; node < dom.Size(); node++ {
		for i := 0; i < 40; i++ {
			batch = append(batch, Sample{Node: uint8(node), Key: key & masks[node]})
		}
	}
	col.Apply(3, 1000, batch)

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(replay)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no admitted events within the deadline")
		}
		time.Sleep(time.Millisecond)
	}

	// Idle: no more samples → no more deltas (allow in-flight ticks a beat).
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	before := deltas
	mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	after := deltas
	mu.Unlock()
	if after != before {
		t.Fatalf("idle collector delivered %d extra deltas", after-before)
	}

	// The replayed set must match a full query exactly.
	out, _ := col.OutputInto(nil, 0.2)
	mu.Lock()
	defer mu.Unlock()
	if len(out) != len(replay) {
		t.Fatalf("replayed set has %d results, Output %d", len(replay), len(out))
	}
	for _, r := range out {
		if got, ok := replay[ident{r.Node, r.Key}]; !ok || got != r {
			t.Fatalf("replay mismatch at node %d: %+v vs %+v", r.Node, got, r)
		}
	}
}

// TestCollectorWatchRejectsBadMinDelta: a negative or NaN hysteresis panics
// like the other argument errors instead of silently disabling Updated
// events (no estimate change compares >= NaN).
func TestCollectorWatchRejectsBadMinDelta(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	col := NewCollector(dom, 0.02, 0.05, dom.Size())
	for _, md := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Watch accepted minDelta %v", md)
				}
			}()
			col.Watch(0.2, md, time.Millisecond, func(CollectorDelta) {}).Close()
		}()
	}
}
