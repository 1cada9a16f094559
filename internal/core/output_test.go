package core_test

import (
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// fakeInst is a scripted Instance for precise Output/calcPred unit tests:
// it reports exactly the candidates and bounds it was given. queryOnly
// entries answer Bounds but are not candidates — like an unmonitored key in
// a real Space Saving instance, whose upper bound is still queryable.
type fakeInst struct {
	items     map[uint64][2]uint64 // key → {upper, lower}
	queryOnly map[uint64][2]uint64
}

func (f *fakeInst) Bounds(k uint64) (uint64, uint64) {
	if b, ok := f.items[k]; ok {
		return b[0], b[1]
	}
	b := f.queryOnly[k] // zero value → (0, 0) for unknown keys
	return b[0], b[1]
}
func (f *fakeInst) Candidates(fn func(uint64, uint64, uint64)) {
	for k, b := range f.items {
		fn(k, b[0], b[1])
	}
}

// scriptedInstances builds an empty instance per node and two setters: one
// for candidates, one for query-only bounds.
func scriptedInstances(dom *hierarchy.Domain[uint64]) ([]core.Instance[uint64], func(srcBits, dstBits int, key uint64, upper, lower uint64), func(srcBits, dstBits int, key uint64, upper, lower uint64)) {
	insts := make([]core.Instance[uint64], dom.Size())
	fakes := make([]*fakeInst, dom.Size())
	for i := range insts {
		fakes[i] = &fakeInst{items: map[uint64][2]uint64{}, queryOnly: map[uint64][2]uint64{}}
		insts[i] = fakes[i]
	}
	at := func(srcBits, dstBits int) int {
		node, ok := dom.NodeByBits(srcBits, dstBits)
		if !ok {
			panic("bad node")
		}
		return node
	}
	set := func(srcBits, dstBits int, key uint64, upper, lower uint64) {
		node := at(srcBits, dstBits)
		fakes[node].items[dom.Mask(key, node)] = [2]uint64{upper, lower}
	}
	setQuery := func(srcBits, dstBits int, key uint64, upper, lower uint64) {
		node := at(srcBits, dstBits)
		fakes[node].queryOnly[dom.Mask(key, node)] = [2]uint64{upper, lower}
	}
	return insts, set, setQuery
}

func findResult(rs []core.Result[uint64], dom *hierarchy.Domain[uint64], srcBits, dstBits int, key uint64) (core.Result[uint64], bool) {
	node, _ := dom.NodeByBits(srcBits, dstBits)
	for _, r := range rs {
		if r.Node == node && r.Key == dom.Mask(key, node) {
			return r, true
		}
	}
	return core.Result[uint64]{}, false
}

// TestCalcPredSubtractsDescendant checks the paper's 1D logic in the 2D
// lattice: a parent whose traffic is fully covered by an admitted child is
// excluded.
func TestCalcPredSubtractsDescendant(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	insts, set, _ := scriptedInstances(dom)
	flow := hierarchy.Pack2D(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2))
	set(32, 32, flow, 300, 300) // the flow itself
	set(24, 32, flow, 300, 300) // its source /24 parent: same traffic

	out := core.Extract(dom, insts, 1000, 1, 0, 0.1)
	if _, ok := findResult(out, dom, 32, 32, flow); !ok {
		t.Fatal("child missing")
	}
	if r, ok := findResult(out, dom, 24, 32, flow); ok {
		t.Fatalf("covered parent admitted with Cond=%v", r.Cond)
	}
}

// TestCalcPredKeepsParentWithOwnTraffic: a parent with traffic beyond its
// admitted child stays.
func TestCalcPredKeepsParentWithOwnTraffic(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	insts, set, _ := scriptedInstances(dom)
	flow := hierarchy.Pack2D(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2))
	set(32, 32, flow, 300, 300)
	set(24, 32, flow, 450, 450) // 150 of its own

	out := core.Extract(dom, insts, 1000, 1, 0, 0.1)
	r, ok := findResult(out, dom, 24, 32, flow)
	if !ok {
		t.Fatal("parent with 150 extra traffic missing (threshold 100)")
	}
	if r.Cond != 150 {
		t.Fatalf("parent Cond = %v, want 450-300 = 150", r.Cond)
	}
}

// TestCalcPredTripleOverlapGuard stages the Algorithm 3 line 8 case: the glb
// of two G members lies inside a third member and must NOT be added back.
//
//	h1 = (10.1.*, *)      300
//	h2 = (*, 20.1.*)      300
//	h3 = (10.*, 20.*)     300
//	glb(h1,h2) = (10.1.*, 20.1.*)  — inside h3 → suppressed
//	glb(h1,h3) = (10.1.*, 20.*)    — add back 120
//	glb(h2,h3) = (10.*, 20.1.*)    — add back 110
//	root upper = 1000 → Cond(root) = 1000 − 900 + 120 + 110 = 330
func TestCalcPredTripleOverlapGuard(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	insts, set, setQuery := scriptedInstances(dom)
	src := ip4(10, 1, 0, 0)
	dst := ip4(20, 1, 0, 0)
	base := hierarchy.Pack2D(src, dst)

	set(16, 0, base, 300, 300) // h1
	set(0, 16, base, 300, 300) // h2
	set(8, 8, base, 300, 300)  // h3
	// glb bounds are query-only: the overlaps are not heavy enough to be
	// candidates themselves. The suppressed glb gets a poisoned value: if
	// the guard fails, the root's Cond jumps by 500.
	setQuery(16, 16, base, 500, 500)
	setQuery(16, 8, base, 120, 100) // glb(h1,h3): upper 120 used
	setQuery(8, 16, base, 110, 90)  // glb(h2,h3): upper 110 used
	set(0, 0, base, 1000, 1000)

	out := core.Extract(dom, insts, 1000, 1, 0, 0.1)
	root, ok := findResult(out, dom, 0, 0, base)
	if !ok {
		t.Fatal("root missing")
	}
	if root.Cond != 330 {
		t.Fatalf("root Cond = %v, want 330 (triple-overlap guard + pairwise add-back)", root.Cond)
	}
}

// TestCalcPredNoCommonDescendant: incompatible G members contribute no
// add-back (Definition 12: glb of disjoint prefixes counts as zero).
func TestCalcPredNoCommonDescendant(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	insts, set, _ := scriptedInstances(dom)
	a := hierarchy.Pack2D(ip4(10, 0, 0, 0), 0)
	b := hierarchy.Pack2D(ip4(20, 0, 0, 0), 0)
	set(8, 0, a, 300, 300)
	set(8, 0, b, 300, 300)
	set(0, 0, 0, 1000, 1000)

	out := core.Extract(dom, insts, 1000, 1, 0, 0.1)
	root, ok := findResult(out, dom, 0, 0, 0)
	if !ok {
		t.Fatal("root missing")
	}
	if root.Cond != 400 {
		t.Fatalf("root Cond = %v, want 1000-600 = 400 (no glb add-back)", root.Cond)
	}
}

// TestCalcPredMaximalityFilter: G(p|P) keeps only the closest descendants —
// a grandchild already covered by an admitted child must not be subtracted
// twice.
func TestCalcPredMaximalityFilter(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	insts, set, _ := scriptedInstances(dom)
	flow := hierarchy.Pack2D(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2))
	set(32, 32, flow, 200, 200) // grandchild
	set(24, 32, flow, 300, 300) // child (covers grandchild + 100 own)
	set(16, 32, flow, 450, 450) // parent: 150 own traffic

	out := core.Extract(dom, insts, 1000, 1, 0, 0.1)
	r, ok := findResult(out, dom, 16, 32, flow)
	if !ok {
		t.Fatal("parent missing")
	}
	// G(parent|P) = {child} only; Cond = 450 − 300 = 150. If the
	// grandchild were wrongly included, Cond would be −50 and the parent
	// dropped.
	if r.Cond != 150 {
		t.Fatalf("parent Cond = %v, want 150 (maximality filter)", r.Cond)
	}
}

// TestExtractCorrectionAdmitsMarginal: the sampling correction term is added
// to every candidate's conditioned estimate (Algorithm 1 line 13).
func TestExtractCorrectionAdmitsMarginal(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	insts, set, _ := scriptedInstances(dom)
	flow := hierarchy.Pack2D(ip4(1, 1, 1, 1), ip4(2, 2, 2, 2))
	set(32, 32, flow, 80, 80) // below the 100 threshold on its own

	if out := core.Extract(dom, insts, 1000, 1, 0, 0.1); len(out) != 0 {
		t.Fatalf("admitted without correction: %v", out)
	}
	out := core.Extract(dom, insts, 1000, 1, 30, 0.1) // 80+30 ≥ 100
	if _, ok := findResult(out, dom, 32, 32, flow); !ok {
		t.Fatal("correction not applied to the conditioned estimate")
	}
}

// TestExtractOutputInvariants property-checks structural invariants of the
// output on random streams: unique prefixes, Cond ≥ θN, Lower ≤ Upper.
func TestExtractOutputInvariants(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	for seed := uint64(1); seed <= 5; seed++ {
		eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: seed})
		r := fastrand.New(seed * 7)
		const n = 100000
		for i := 0; i < n; i++ {
			eng.Update(gen2D(r))
		}
		out := eng.Output(0.1)
		seen := map[[2]uint64]bool{}
		for _, p := range out {
			id := [2]uint64{uint64(p.Node), p.Key}
			if seen[id] {
				t.Fatalf("duplicate output prefix %s", dom.Format(p.Key, p.Node))
			}
			seen[id] = true
			if p.Cond < 0.1*n {
				t.Fatalf("admitted below threshold: Cond=%v", p.Cond)
			}
			if p.Lower > p.Upper {
				t.Fatalf("bounds inverted: [%v, %v]", p.Lower, p.Upper)
			}
		}
	}
}

// TestCountersForWorkedExample pins the §6.1 worked example: ε = 0.001
// needs 1001 counters per node, and Theorem 6.19's H/εa scaling follows.
func TestCountersForWorkedExample(t *testing.T) {
	if got := core.CountersFor(0.001); got != 1001 {
		t.Fatalf("CountersFor(0.001) = %d, want 1001", got)
	}
	if got := core.CountersFor(0.01); got != 101 {
		t.Fatalf("CountersFor(0.01) = %d, want 101", got)
	}
}

// TestExtractInstanceCountMismatchPanics guards the wiring invariant.
func TestExtractInstanceCountMismatchPanics(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched instance slice accepted")
		}
	}()
	core.Extract(dom, make([]core.Instance[uint64], 3), 100, 1, 0, 0.5)
}
