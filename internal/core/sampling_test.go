package core_test

import (
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// TestSkipSamplingMatchesPerDraw compares the node-hit distributions of the
// geometric skip sampler and the historical per-packet-draw sampler with a
// two-sample chi-squared test over the H lattice nodes plus the not-sampled
// mass. The two realize the same Bernoulli(H/V) × uniform-node process, so
// the statistic must stay near its degrees of freedom.
func TestSkipSamplingMatchesPerDraw(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	h := dom.Size()
	const n = 2_000_000

	hits := func(seed uint64, perDraw bool) []float64 {
		eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, V: 10 * h, Seed: seed})
		if perDraw {
			eng.ForcePerDrawSampling()
		} else if !eng.UsesSkipSampling() {
			t.Fatal("V=10H engine should use skip sampling")
		}
		r := fastrand.New(seed + 1000)
		for i := 0; i < n; i++ {
			eng.Update(r.Uint64())
		}
		out := make([]float64, h+1)
		var sampled uint64
		for node := 0; node < h; node++ {
			u := eng.NodeUpdates(node)
			out[node] = float64(u)
			sampled += u
		}
		out[h] = float64(n - sampled) // not-sampled cell
		return out
	}

	a := hits(1, false) // geometric skip
	b := hits(2, true)  // per-packet draw

	chi2 := 0.0
	for i := range a {
		if a[i]+b[i] == 0 {
			continue
		}
		d := a[i] - b[i]
		chi2 += d * d / (a[i] + b[i])
	}
	// 25 node cells + 1 miss cell → 25 degrees of freedom; the 99.9th
	// percentile of chi-squared(25) is ≈ 52.6.
	if chi2 > 52.6 {
		t.Fatalf("chi-squared %.1f: skip and per-draw node-hit distributions diverge\nskip:     %v\nper-draw: %v", chi2, a, b)
	}
}

// TestUpdateBatchMatchesSequential: batched updates must consume the RNG and
// mutate state exactly as the equivalent sequence of single updates — same
// per-node hit counts and identical Output, for V = H and V > H alike.
func TestUpdateBatchMatchesSequential(t *testing.T) {
	for _, vMult := range []int{1, 10} {
		dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
		h := dom.Size()
		cfg := core.Config{Epsilon: 0.02, Delta: 0.05, V: vMult * h, Seed: 77}

		const n = 120_000
		keys := make([]uint64, n)
		r := fastrand.New(78)
		for i := range keys {
			keys[i] = gen2D(r)
		}

		seq := core.New(dom, cfg)
		for _, k := range keys {
			seq.Update(k)
		}

		bat := core.New(dom, cfg)
		// Uneven batch sizes, including empty and size-1 batches.
		sizes := []int{1, 0, 7, 64, 1, 1000, 3, 8192, 0, striding(n)}
		i := 0
		for i < n {
			for _, sz := range sizes {
				if i >= n {
					break
				}
				end := i + sz
				if end > n {
					end = n
				}
				bat.UpdateBatch(keys[i:end])
				i = end
			}
		}

		if seq.N() != bat.N() || seq.Weight() != bat.Weight() {
			t.Fatalf("V=%dH: N/Weight diverge: (%d,%d) vs (%d,%d)",
				vMult, seq.N(), seq.Weight(), bat.N(), bat.Weight())
		}
		for node := 0; node < h; node++ {
			if a, b := seq.NodeUpdates(node), bat.NodeUpdates(node); a != b {
				t.Fatalf("V=%dH node %d: %d sequential updates vs %d batched", vMult, node, a, b)
			}
		}
		a, b := seq.Output(0.05), bat.Output(0.05)
		if len(a) != len(b) {
			t.Fatalf("V=%dH: output lengths differ: %d vs %d", vMult, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("V=%dH: output %d differs: %+v vs %+v", vMult, i, a[i], b[i])
			}
		}
	}
}

// striding returns a batch size that drains whatever remains.
func striding(n int) int { return n }

// TestSkipSamplingWeighted: the skip path must keep weighted estimates
// unbiased — a 50%-weight flow at V = 4H lands within the sampling noise.
func TestSkipSamplingWeighted(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	h := dom.Size()
	eng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, V: 4 * h, Seed: 21})
	if !eng.UsesSkipSampling() {
		t.Fatal("V=4H engine should use skip sampling")
	}
	r := fastrand.New(22)
	var total uint64
	k := ip4(9, 9, 9, 9)
	for i := 0; i < 400_000; i++ {
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
		t.Fatalf("skip-path weighted estimate %v for a 50%%-weight flow (total %d)", up, total)
	}
}

// TestBackendSpecialization: the default configuration counts with the
// Space Saving summaries (TestCHKBackendSelected covers CHKBackend).
func TestBackendSpecialization(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	ssEng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, Seed: 1})
	if !ssEng.UsesConcreteBackend() || ssEng.UsesCHKBackend() {
		t.Error("default config did not select the Space Saving summaries")
	}
}
