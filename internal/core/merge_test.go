package core_test

import (
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// TestExtractSnapshotsFindsUnionHeavyHitters: the union read over four
// engines fed round-robin finds heavy hitters planted in the union stream.
func TestExtractSnapshotsFindsUnionHeavyHitters(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	cfg := core.Config{Epsilon: 0.02, Delta: 0.05}
	const shards = 4
	engines := make([]*core.Engine[uint64], shards)
	for i := range engines {
		c := cfg
		c.Seed = uint64(i + 1)
		engines[i] = core.New(dom, c)
	}
	// Feed the union stream round-robin (flow-hash sharding in practice).
	r := fastrand.New(9)
	n := int(engines[0].Psi()) + 200000
	for i := 0; i < n; i++ {
		engines[i%shards].Update(gen2D(r))
	}
	snaps := make([]*core.EngineSnapshot[uint64], shards)
	for i, e := range engines {
		snaps[i] = e.Snapshot()
	}
	out := core.NewExtractor(dom).ExtractSnapshots(snaps, 0.1)
	find := func(srcBits, dstBits int, key uint64) bool {
		node, _ := dom.NodeByBits(srcBits, dstBits)
		for _, p := range out {
			if p.Node == node && p.Key == dom.Mask(key, node) {
				return true
			}
		}
		return false
	}
	if !find(32, 32, hierarchy.Pack2D(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2))) {
		t.Error("merged output missed the heavy flow")
	}
	if !find(24, 0, hierarchy.Pack2D(ip4(30, 3, 3, 0), 0)) {
		t.Error("merged output missed the source /24")
	}
	if !find(0, 16, hierarchy.Pack2D(0, ip4(40, 4, 0, 0))) {
		t.Error("merged output missed the destination /16")
	}
	// The merged estimate of the heavy flow is near the true 30% share.
	node, _ := dom.NodeByBits(32, 32)
	for _, p := range out {
		if p.Node == node && p.Key == hierarchy.Pack2D(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2)) {
			if p.Upper < 0.2*float64(n) || p.Upper > 0.42*float64(n) {
				t.Errorf("merged estimate %v for a 30%% flow of %d", p.Upper, n)
			}
		}
	}
}
