package core_test

import (
	"math"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/exact"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/spacesaving"
)

func ip4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// gen2D produces skewed two-dimensional traffic with heavy aggregates at
// several lattice levels: a heavy flow, a heavy source /24 spread over
// destinations, a heavy destination /16 spread over sources, and a uniform
// tail.
func gen2D(r *fastrand.Source) uint64 {
	switch r.Uint64n(10) {
	case 0, 1, 2: // 30%: single heavy flow
		return hierarchy.Pack2D(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2))
	case 3, 4: // 20%: heavy source /24, random destinations
		return hierarchy.Pack2D(ip4(30, 3, 3, byte(r.Uint64n(256))), uint32(r.Uint64()))
	case 5, 6: // 20%: heavy destination /16, random sources
		return hierarchy.Pack2D(uint32(r.Uint64()), ip4(40, 4, byte(r.Uint64n(256)), byte(r.Uint64n(256))))
	default: // 30%: uniform tail
		return hierarchy.Pack2D(uint32(r.Uint64()), uint32(r.Uint64()))
	}
}

// mstSummaries builds one Space Saving summary per lattice node, for tests
// that feed every node every packet as the deterministic MST baseline does,
// and their Instance view for Extract.
func mstSummaries[K comparable](dom *hierarchy.Domain[K], counters int) ([]*spacesaving.Summary[K], []core.Instance[K]) {
	sums := make([]*spacesaving.Summary[K], dom.Size())
	for i := range sums {
		sums[i] = spacesaving.New[K](counters)
	}
	return sums, core.WrapSummaries(sums)
}

func refs[K comparable](rs []core.Result[K]) []exact.PrefixRef[K] {
	out := make([]exact.PrefixRef[K], len(rs))
	for i, p := range rs {
		out[i] = exact.PrefixRef[K]{Key: p.Key, Node: p.Node}
	}
	return out
}

func TestRHHHFindsPlantedAggregates(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: 1})
	r := fastrand.New(2)
	n := int(eng.Psi()) + 100000
	for i := 0; i < n; i++ {
		eng.Update(gen2D(r))
	}
	if !eng.Converged() {
		t.Fatal("engine should report convergence past ψ")
	}
	out := eng.Output(0.1)

	find := func(srcBits, dstBits int, key uint64) bool {
		node, _ := dom.NodeByBits(srcBits, dstBits)
		for _, p := range out {
			if p.Node == node && p.Key == dom.Mask(key, node) {
				return true
			}
		}
		return false
	}
	flow := hierarchy.Pack2D(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2))
	if !find(32, 32, flow) {
		t.Error("heavy flow (30%) missing from output")
	}
	src24 := hierarchy.Pack2D(ip4(30, 3, 3, 0), 0)
	if !find(24, 0, src24) {
		t.Error("heavy source /24 aggregate (20%) missing from output")
	}
	dst16 := hierarchy.Pack2D(0, ip4(40, 4, 0, 0))
	if !find(0, 16, dst16) {
		t.Error("heavy destination /16 aggregate (20%) missing from output")
	}
}

func TestRHHHCoverageAfterConvergence(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: 3})
	oracle := exact.New(dom)
	r := fastrand.New(4)
	n := int(eng.Psi()) + 200000
	for i := 0; i < n; i++ {
		k := gen2D(r)
		eng.Update(k)
		oracle.Add(k)
	}
	out := eng.Output(0.1)
	v, evaluated := oracle.CoverageViolations(refs(out), 0.1)
	if evaluated == 0 {
		t.Fatal("nothing evaluated")
	}
	// Coverage holds per prefix with probability 1−δ; the planted heavy
	// aggregates are few, so any violation at all is suspicious.
	if v > 0 {
		t.Fatalf("%d/%d coverage violations after convergence", v, evaluated)
	}
}

func TestRHHHAccuracyAfterConvergence(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: 5})
	oracle := exact.New(dom)
	r := fastrand.New(6)
	n := int(eng.Psi()) + 200000
	for i := 0; i < n; i++ {
		k := gen2D(r)
		eng.Update(k)
		oracle.Add(k)
	}
	out := eng.Output(0.1)
	if len(out) == 0 {
		t.Fatal("empty output")
	}
	// ε = εa + εs = 2·Epsilon for the combined guarantee (Theorem 6.6).
	bound := 2 * 0.02 * float64(eng.N())
	bad := 0
	for _, p := range out {
		f := float64(oracle.Frequency(p.Key, p.Node))
		if math.Abs(p.Upper-f) > bound {
			bad++
		}
	}
	if bad > (len(out)+9)/10 {
		t.Fatalf("%d/%d outputs outside the εN accuracy bound", bad, len(out))
	}
}

func TestMSTDeterministicGuarantees(t *testing.T) {
	// MST (scale 1, no correction) must satisfy accuracy and coverage
	// deterministically — via the shared Extract machinery.
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	sums, inst := mstSummaries(dom, 200) // ε = 0.005
	oracle := exact.New(dom)
	r := fastrand.New(7)
	const n = 50000
	for i := 0; i < n; i++ {
		k := gen2D(r)
		for node := 0; node < dom.Size(); node++ {
			sums[node].Increment(dom.Mask(k, node))
		}
		oracle.Add(k)
	}
	out := core.Extract(dom, inst, float64(n), 1, 0, 0.1)
	v, _ := oracle.CoverageViolations(refs(out), 0.1)
	if v != 0 {
		t.Fatalf("deterministic baseline has %d coverage violations", v)
	}
	for _, p := range out {
		f := float64(oracle.Frequency(p.Key, p.Node))
		if p.Upper < f {
			t.Fatalf("upper bound %v below true frequency %v for %s",
				p.Upper, f, dom.Format(p.Key, p.Node))
		}
		if p.Upper-f > 0.005*n {
			t.Fatalf("overestimate beyond εN for %s: %v vs %v",
				dom.Format(p.Key, p.Node), p.Upper, f)
		}
		if p.Lower > f {
			t.Fatalf("lower bound %v above true frequency %v", p.Lower, f)
		}
	}
}

func TestOutputOneDim(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	sums, inst := mstSummaries(dom, 1000)
	// 40% of traffic under 7.7.7.* spread across hosts, rest uniform.
	r := fastrand.New(8)
	const n = 20000
	for i := 0; i < n; i++ {
		var k uint32
		if r.Uint64n(10) < 4 {
			k = ip4(7, 7, 7, byte(r.Uint64n(256)))
		} else {
			k = uint32(r.Uint64())
		}
		for node := 0; node < dom.Size(); node++ {
			sums[node].Increment(dom.Mask(k, node))
		}
	}
	out := core.Extract(dom, inst, float64(n), 1, 0, 0.2)
	n24, _ := dom.NodeByBits(24, 0)
	found := false
	for _, p := range out {
		if p.Node == n24 && p.Key == ip4(7, 7, 7, 0) {
			found = true
		}
		if p.Node == dom.FullNode() {
			t.Errorf("no fully specified item should pass θ=20%%: %s", dom.Format(p.Key, p.Node))
		}
	}
	if !found {
		t.Fatal("7.7.7.* missing")
	}
	// Ancestors of 7.7.7.* must not be admitted: their conditioned
	// frequency (≈0.6·uniform share) is below θ.
	n16, _ := dom.NodeByBits(16, 0)
	for _, p := range out {
		if p.Node == n16 && p.Key == ip4(7, 7, 0, 0) {
			t.Error("7.7.* admitted despite covered traffic")
		}
	}
}

func TestCalcPredTwoDimInclusionExclusion(t *testing.T) {
	// Construct the classic 2D overlap: heavy (s,*) and (*,d) whose traffic
	// is the SAME flows (s→d). Without the glb add-back, (*,*) would be
	// counted negative twice and suppressed; with it, the estimate of (*,*)
	// must not go below zero traffic it actually adds.
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	sums, inst := mstSummaries(dom, 1000)
	r := fastrand.New(9)
	const n = 30000
	src := ip4(1, 1, 1, 1)
	dst := ip4(2, 2, 2, 2)
	for i := 0; i < n; i++ {
		var k uint64
		if r.Uint64n(2) == 0 {
			k = hierarchy.Pack2D(src, dst) // 50%: s→d (heavy in both dims)
		} else {
			k = hierarchy.Pack2D(uint32(r.Uint64()), uint32(r.Uint64()))
		}
		for node := 0; node < dom.Size(); node++ {
			sums[node].Increment(dom.Mask(k, node))
		}
	}
	out := core.Extract(dom, inst, float64(n), 1, 0, 0.3)
	// The flow itself is the only θ=30% HHH below the root.
	if len(out) == 0 {
		t.Fatal("empty output")
	}
	full := dom.FullNode()
	foundFlow := false
	for _, p := range out {
		if p.Node == full && p.Key == hierarchy.Pack2D(src, dst) {
			foundFlow = true
		}
	}
	if !foundFlow {
		t.Fatal("heavy flow missing")
	}
	// The root's conditioned estimate must reflect the glb add-back: its
	// Cond should be ≥ the uncovered uniform traffic (~50%) and it should
	// be admitted (≥30%); a sign error in calcPred would push it negative.
	root := dom.RootNode()
	foundRoot := false
	for _, p := range out {
		if p.Node == root {
			foundRoot = true
			if p.Cond < 0.4*n {
				t.Errorf("root conditioned estimate %v unexpectedly low", p.Cond)
			}
		}
	}
	if !foundRoot {
		t.Error("(*,*) missing despite 50% uncovered traffic")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	mk := func() []core.Result[uint32] {
		eng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, Seed: 42})
		r := fastrand.New(43)
		for i := 0; i < 100000; i++ {
			eng.Update(uint32(r.Uint64n(1 << 16)))
		}
		return eng.Output(0.05)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestVScalesSampling(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	h := dom.Size()
	eng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, V: 10 * h, Seed: 44})
	r := fastrand.New(45)
	const n = 100000
	for i := 0; i < n; i++ {
		eng.Update(uint32(r.Uint64()))
	}
	// With V = 10H, roughly 10% of packets update some node; the root node
	// instance sees ≈ n/V packets, and scaling by V recovers N.
	_, upRoot := eng.EstimateFrequency(0, dom.RootNode())
	want := float64(n)
	if upRoot < 0.7*want || upRoot > 1.3*want {
		t.Fatalf("root estimate %v not within 30%% of N=%v under V=10H", upRoot, want)
	}
	if eng.V() != 10*h {
		t.Fatalf("V = %d", eng.V())
	}
}

func TestPsiMatchesPaperOrder(t *testing.T) {
	// §4.1: with ε = δ = 0.001 and 2D bytes, RHHH's bound is ≈1e8 packets
	// and 10-RHHH's ≈1e9.
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	e1 := core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, Seed: 1})
	e10 := core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, V: 250, Seed: 1})
	if e1.Psi() < 5e7 || e1.Psi() > 2e8 {
		t.Errorf("ψ(RHHH) = %v, want ≈1e8", e1.Psi())
	}
	if e10.Psi() < 5e8 || e10.Psi() > 2e9 {
		t.Errorf("ψ(10-RHHH) = %v, want ≈1e9", e10.Psi())
	}
	if r := e10.Psi() / e1.Psi(); math.Abs(r-10) > 1e-9 {
		t.Errorf("ψ ratio %v, want exactly 10", r)
	}
}

func TestMultiUpdateSpeedsConvergence(t *testing.T) {
	// Corollary 6.8: r independent updates divide ψ by r.
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	e1 := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, Seed: 1})
	e4 := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, R: 4, Seed: 1})
	if r := e1.Psi() / e4.Psi(); math.Abs(r-4) > 1e-9 {
		t.Fatalf("ψ ratio with R=4 is %v, want 4", r)
	}
	// And the estimates stay unbiased: feed a constant-key stream.
	r := fastrand.New(50)
	const n = 200000
	k := hierarchy.Pack2D(ip4(1, 2, 3, 4), ip4(5, 6, 7, 8))
	for i := 0; i < n; i++ {
		if r.Uint64n(2) == 0 {
			e4.Update(k)
		} else {
			e4.Update(hierarchy.Pack2D(uint32(r.Uint64()), uint32(r.Uint64())))
		}
	}
	_, up := e4.EstimateFrequency(dom.Mask(k, dom.FullNode()), dom.FullNode())
	if up < 0.4*n || up > 0.62*n {
		t.Fatalf("R=4 estimate %v for a 50%% flow of %d packets", up, n)
	}
}

func TestUpdateWeighted(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, Seed: 11})
	r := fastrand.New(12)
	var total uint64
	k := ip4(1, 1, 1, 1)
	for i := 0; i < 100000; i++ {
		w := 1 + r.Uint64n(3)
		total += w
		if r.Uint64n(2) == 0 {
			eng.UpdateWeighted(k, w)
		} else {
			eng.UpdateWeighted(uint32(r.Uint64()), w)
		}
	}
	if eng.Weight() != total {
		t.Fatalf("Weight = %d, want %d", eng.Weight(), total)
	}
	_, up := eng.EstimateFrequency(k, dom.FullNode())
	if up < 0.35*float64(total) || up > 0.65*float64(total) {
		t.Fatalf("weighted estimate %v for a 50%%-weight flow (total %d)", up, total)
	}
}

func TestResetClearsState(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, Seed: 15})
	for i := 0; i < 1000; i++ {
		eng.Update(ip4(1, 1, 1, 1))
	}
	eng.Reset()
	if eng.N() != 0 || eng.Weight() != 0 {
		t.Fatal("Reset left counters")
	}
	if out := eng.Output(0.5); out != nil {
		t.Fatalf("Output after Reset = %v", out)
	}
}

func TestConfigValidation(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	cases := []core.Config{
		{Epsilon: 0, Delta: 0.1},
		{Epsilon: 0.1, Delta: 0},
		{Epsilon: 1.5, Delta: 0.1},
		{Epsilon: 0.1, Delta: 0.1, V: 2}, // V < H
		{Epsilon: 0.1, Delta: 0.1, R: -1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic: %+v", i, cfg)
				}
			}()
			core.New(dom, cfg)
		}()
	}
}

func TestOutputPanicsOnBadTheta(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.1, Delta: 0.1})
	for _, theta := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("theta %v did not panic", theta)
				}
			}()
			eng.Output(theta)
		}()
	}
}

func BenchmarkRHHHUpdate2D(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, Seed: 1})
	r := fastrand.New(2)
	keys := make([]uint64, 8192)
	for i := range keys {
		keys[i] = gen2D(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Update(keys[i&8191])
	}
}

func BenchmarkMSTStyleUpdate2D(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	sums, _ := mstSummaries(dom, 1000)
	r := fastrand.New(2)
	keys := make([]uint64, 8192)
	for i := range keys {
		keys[i] = gen2D(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&8191]
		for node := 0; node < dom.Size(); node++ {
			sums[node].Increment(dom.Mask(k, node))
		}
	}
}
