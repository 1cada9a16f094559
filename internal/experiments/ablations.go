package experiments

import (
	"fmt"
	"sort"
	"time"

	"rhhh/internal/baseline/mst"
	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/sketch"
	"rhhh/internal/trace"
)

// AblationMultiUpdate exercises Corollary 6.8: with r independent update
// draws per packet, RHHH converges r times faster. It reports the accuracy
// error ratio over the stream for r ∈ {1, 2, 4} together with each engine's
// N/ψ.
func AblationMultiUpdate(cfg SweepConfig) []Table {
	cfg = cfg.withDefaults()
	cfg.Profiles = cfg.Profiles[:1]
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	mk := func(string) []runner[uint64] {
		var rs []runner[uint64]
		for _, r := range []int{1, 2, 4} {
			eng := core.New(dom, core.Config{
				Epsilon: cfg.Epsilon, Delta: cfg.Delta, R: r, Seed: cfg.Seed + uint64(r),
			})
			rs = append(rs, runner[uint64]{
				name:   fmt.Sprintf("RHHH(r=%d)", r),
				update: eng.Update,
				output: eng.Output,
				psi:    eng.Psi(),
			})
		}
		return rs
	}
	pts := runSweep(cfg, dom, mk, trace.Packet.Key2)
	return pivot(pts, "Ablation: r independent updates per packet (Corollary 6.8), accuracy error",
		func(p sweepPoint) float64 { return p.Accuracy })
}

// AblationBackends compares per-update cost of the four HH backends the
// engine supports: stream-summary Space Saving (O(1)), CHK, heap Space
// Saving (O(log c)) and conservative Count-Min (d hashes) — the paper
// argues for Space Saving.
func AblationBackends(cfg SpeedConfig) []Table {
	cfg = cfg.withDefaults()
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	gen := trace.NewSynthetic(trace.Profile(cfg.Profiles[0]))
	keys := make([]uint64, cfg.Packets)
	for i := range keys {
		p, _ := gen.Next()
		keys[i] = p.Key2()
	}
	t := Table{
		Title:   "Ablation: RHHH backend update speed (2D bytes)",
		Headers: []string{"epsilon", "SpaceSaving Mpps", "CHK Mpps", "Heap Mpps", "CountMin Mpps"},
	}
	for _, eps := range cfg.Epsilons {
		ss := core.New(dom, core.Config{Epsilon: eps, Delta: cfg.Delta, Seed: cfg.Seed})
		ck := core.New(dom, core.Config{Epsilon: eps, Delta: cfg.Delta, Seed: cfg.Seed, Backend: core.CHKBackend})
		hp := core.New(dom, core.Config{Epsilon: eps, Delta: cfg.Delta, Seed: cfg.Seed, Backend: core.HeapBackend})
		cm := core.NewWithInstances(dom,
			core.Config{Epsilon: eps, Delta: cfg.Delta, Seed: cfg.Seed},
			core.CountMinInstances(dom, eps, cfg.Delta, sketch.Hash64))
		t.Add(fmtF(eps),
			timeUpdates(keys, ss.Update),
			timeUpdates(keys, ck.Update),
			timeUpdates(keys, hp.Update),
			timeUpdates(keys, cm.Update))
	}
	return []Table{t}
}

// AblationWorstCase contrasts RHHH's O(1) worst-case update with the
// sampled-MST strawman from the paper's introduction, whose cost is O(1)
// only amortized: a sampled packet still pays the full O(H) update. It
// reports per-packet latency percentiles; the strawman's tail is what the
// paper argues delays victim packets and overflows buffers.
func AblationWorstCase(cfg SpeedConfig) []Table {
	cfg = cfg.withDefaults()
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	h := dom.Size()
	gen := trace.NewSynthetic(trace.Profile(cfg.Profiles[0]))
	n := cfg.Packets
	if n > 300_000 {
		n = 300_000 // per-packet timing is expensive; cap it
	}
	keys := make([]uint64, n)
	for i := range keys {
		p, _ := gen.Next()
		keys[i] = p.Key2()
	}

	measure := func(update func(uint64)) (p50, p999, max float64) {
		lat := make([]float64, len(keys))
		for i, k := range keys {
			t0 := time.Now()
			update(k)
			lat[i] = float64(time.Since(t0).Nanoseconds())
		}
		sort.Float64s(lat)
		return lat[len(lat)/2], lat[len(lat)*999/1000], lat[len(lat)-1]
	}

	t := Table{
		Title:   "Ablation: per-packet update latency, RHHH vs sampled-MST strawman (ns)",
		Headers: []string{"algorithm", "p50", "p99.9", "max"},
	}
	eng := core.New(dom, core.Config{Epsilon: 0.001, Delta: cfg.Delta, V: 10 * h, Seed: cfg.Seed})
	p50, p999, mx := measure(eng.Update)
	t.Add("10-RHHH (O(1) worst case)", p50, p999, mx)

	str := mst.NewSampled(dom, 0.001, cfg.Delta, 10*h, cfg.Seed)
	p50, p999, mx = measure(str.Update)
	t.Add("sampled-MST (O(H) worst case)", p50, p999, mx)
	return []Table{t}
}

// AblationRecall reports recall and output sizes for all five algorithms at
// the end of a sweep — the "similar accuracy and recall" claim of the
// paper's abstract in table form.
func AblationRecall(cfg SweepConfig) []Table {
	cfg = cfg.withDefaults()
	cfg.IncludeBaselines = true
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	last := cfg.Checkpoints[len(cfg.Checkpoints)-1]
	cfg.Checkpoints = []uint64{last}
	pts := runSweep(cfg, dom, func(string) []runner[uint64] {
		return buildRunners(cfg, dom, cfg.Seed)
	}, trace.Packet.Key2)
	t := Table{
		Title:   fmt.Sprintf("Recall and output size after %d packets (2D bytes, θ=%g)", last, cfg.Theta),
		Headers: []string{"trace", "algorithm", "recall", "false-positive ratio", "outputs"},
	}
	for _, p := range pts {
		t.Add(p.Profile, p.Algorithm, p.Recall, p.FPR, p.Outputs)
	}
	return []Table{t}
}
