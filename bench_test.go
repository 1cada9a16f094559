// Benchmarks regenerating the paper's evaluation artifacts with the testing
// harness — one benchmark per figure plus the BenchmarkAblation* studies. The
// per-update benchmarks (Figure 5/6/7) report ns/op directly comparable
// across algorithms; the sweep benchmarks (Figures 2–4) run a scaled error
// sweep and report the final error ratios via b.ReportMetric.
//
// Run everything with: go test -bench=. -benchmem
package rhhh_test

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"rhhh"
	"rhhh/internal/baseline/ancestry"
	"rhhh/internal/baseline/mst"
	"rhhh/internal/core"
	"rhhh/internal/experiments"
	"rhhh/internal/hierarchy"
	"rhhh/internal/netgen"
	"rhhh/internal/stats"
	"rhhh/internal/trace"
	"rhhh/internal/vswitch"
)

// prebuiltKeys materializes workload keys once per benchmark binary.
func prebuiltKeys1D(n int) []uint32 {
	gen := trace.NewSynthetic(trace.Profile("sanjose14"))
	keys := make([]uint32, n)
	for i := range keys {
		p, _ := gen.Next()
		keys[i] = p.Key1()
	}
	return keys
}

func prebuiltKeys2D(n int) []uint64 {
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	keys := make([]uint64, n)
	for i := range keys {
		p, _ := gen.Next()
		keys[i] = p.Key2()
	}
	return keys
}

// benchUpdates drives update over the key ring.
func benchUpdates[K comparable](b *testing.B, keys []K, update func(K)) {
	b.Helper()
	b.ResetTimer()
	mask := len(keys) - 1
	for i := 0; i < b.N; i++ {
		update(keys[i&mask])
	}
}

// benchUpdateBatches drives a batched update over the key ring in
// DPDK-style bursts of 256 packets; ns/op remains per packet.
func benchUpdateBatches[K comparable](b *testing.B, keys []K, updateBatch func([]K)) {
	b.Helper()
	const burst = 256
	b.ResetTimer()
	mask := len(keys) - 1 // keys length is a power of two ≥ burst
	for i := 0; i < b.N; i += burst {
		off := i & mask
		end := off + burst
		if end > len(keys) {
			end = len(keys)
		}
		updateBatch(keys[off:end])
	}
}

// BenchmarkFig5UpdateSpeed is Figure 5 in testing.B form: per-update cost of
// every algorithm on the three hierarchies (ε=0.001 — the paper's setting).
func BenchmarkFig5UpdateSpeed(b *testing.B) {
	const eps, delta = 0.001, 0.001
	keys1 := prebuiltKeys1D(1 << 16)
	keys2 := prebuiltKeys2D(1 << 16)

	type dcase struct {
		name string
		run  func(b *testing.B)
	}
	run1D := func(dom *hierarchy.Domain[uint32]) []dcase {
		h := dom.Size()
		return []dcase{
			{"RHHH", func(b *testing.B) {
				benchUpdates(b, keys1, core.New(dom, core.Config{Epsilon: eps, Delta: delta, V: h, Seed: 1}).Update)
			}},
			{"10-RHHH", func(b *testing.B) {
				benchUpdates(b, keys1, core.New(dom, core.Config{Epsilon: eps, Delta: delta, V: 10 * h, Seed: 1}).Update)
			}},
			{"10-RHHH-batch", func(b *testing.B) {
				benchUpdateBatches(b, keys1, core.New(dom, core.Config{Epsilon: eps, Delta: delta, V: 10 * h, Seed: 1}).UpdateBatch)
			}},
			{"10-RHHH-batch-CHK", func(b *testing.B) {
				benchUpdateBatches(b, keys1, core.New(dom, core.Config{Epsilon: eps, Delta: delta, V: 10 * h, Seed: 1, Backend: core.CHKBackend}).UpdateBatch)
			}},
			{"MST", func(b *testing.B) { benchUpdates(b, keys1, mst.New(dom, eps).Update) }},
			{"FullAncestry", func(b *testing.B) { benchUpdates(b, keys1, ancestry.New(dom, eps, ancestry.Full).Update) }},
			{"PartialAncestry", func(b *testing.B) { benchUpdates(b, keys1, ancestry.New(dom, eps, ancestry.Partial).Update) }},
		}
	}
	b.Run("1D-Bytes-H5", func(b *testing.B) {
		for _, c := range run1D(hierarchy.NewIPv4OneDim(hierarchy.Bytes)) {
			b.Run(c.name, c.run)
		}
	})
	b.Run("1D-Bits-H33", func(b *testing.B) {
		for _, c := range run1D(hierarchy.NewIPv4OneDim(hierarchy.Bits)) {
			b.Run(c.name, c.run)
		}
	})
	b.Run("2D-Bytes-H25", func(b *testing.B) {
		dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
		h := dom.Size()
		cases := []dcase{
			{"RHHH", func(b *testing.B) {
				benchUpdates(b, keys2, core.New(dom, core.Config{Epsilon: eps, Delta: delta, V: h, Seed: 1}).Update)
			}},
			{"10-RHHH", func(b *testing.B) {
				benchUpdates(b, keys2, core.New(dom, core.Config{Epsilon: eps, Delta: delta, V: 10 * h, Seed: 1}).Update)
			}},
			{"10-RHHH-batch", func(b *testing.B) {
				benchUpdateBatches(b, keys2, core.New(dom, core.Config{Epsilon: eps, Delta: delta, V: 10 * h, Seed: 1}).UpdateBatch)
			}},
			{"10-RHHH-batch-CHK", func(b *testing.B) {
				benchUpdateBatches(b, keys2, core.New(dom, core.Config{Epsilon: eps, Delta: delta, V: 10 * h, Seed: 1, Backend: core.CHKBackend}).UpdateBatch)
			}},
			{"MST", func(b *testing.B) { benchUpdates(b, keys2, mst.New(dom, eps).Update) }},
			{"FullAncestry", func(b *testing.B) { benchUpdates(b, keys2, ancestry.New(dom, eps, ancestry.Full).Update) }},
			{"PartialAncestry", func(b *testing.B) { benchUpdates(b, keys2, ancestry.New(dom, eps, ancestry.Partial).Update) }},
		}
		for _, c := range cases {
			b.Run(c.name, c.run)
		}
	})
}

// BenchmarkWorkerUpdateBatch times the public ingest path hhhd and
// perfbench drive: one Worker fed 256-packet netip batches from a
// 2¹⁸-packet chicago16 ring (2D bytes, ε = δ = 0.001), with the counters
// warmed by eight ring passes before the timer starts. ns/op is per packet.
// DefaultCadence (V = 10·H) publishes every 16,384 packets, as deployed;
// NoPublish pushes publication out of the run, leaving the family check,
// sampling, key conversion and the counter kernel. Their difference is the
// amortized publication cost. VeqH runs the default configuration (V = H,
// every packet sampled) and VeqH-R2 adds R = 2 (two samples per packet),
// both at the default cadence. CHK and CHK-NoPublish are DefaultCadence
// and NoPublish on the CuckooHeavyKeeper backend, whose publications
// capture and sort every node's sketch.
func BenchmarkWorkerUpdateBatch(b *testing.B) {
	const ringSize, batch = 1 << 18, 256
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	srcs := make([]netip.Addr, ringSize)
	dsts := make([]netip.Addr, ringSize)
	for i := range srcs {
		p, _ := gen.Next()
		srcs[i] = v4addr(p.SrcIP.IPv4())
		dsts[i] = v4addr(p.DstIP.IPv4())
	}
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.001, Delta: 0.001, Seed: 1}
	h := rhhh.MustNew(cfg).H()
	for _, c := range []struct {
		name    string
		v, r    int
		opts    rhhh.ShardedOptions
		backend rhhh.Backend
	}{
		{"DefaultCadence", 10 * h, 1, rhhh.ShardedOptions{}, rhhh.StreamSummary},
		{"NoPublish", 10 * h, 1, rhhh.ShardedOptions{PublishPackets: 1 << 62, PublishBatches: 1 << 30}, rhhh.StreamSummary},
		{"VeqH", h, 1, rhhh.ShardedOptions{}, rhhh.StreamSummary},
		{"VeqH-R2", h, 2, rhhh.ShardedOptions{}, rhhh.StreamSummary},
		{"CHK", 10 * h, 1, rhhh.ShardedOptions{}, rhhh.CuckooHeavyKeeper},
		{"CHK-NoPublish", 10 * h, 1, rhhh.ShardedOptions{PublishPackets: 1 << 62, PublishBatches: 1 << 30}, rhhh.CuckooHeavyKeeper},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := cfg
			cfg.V, cfg.R, cfg.Backend = c.v, c.r, c.backend
			s, err := rhhh.NewShardedOptions(cfg, 1, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			w := s.Worker(0)
			for range 8 {
				for off := 0; off < ringSize; off += batch {
					w.UpdateBatch(srcs[off:off+batch], dsts[off:off+batch])
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			off := 0
			for i := 0; i < b.N; i += batch {
				w.UpdateBatch(srcs[off:off+batch], dsts[off:off+batch])
				off = (off + batch) % ringSize
			}
		})
	}
}

// sweepBench runs a scaled error sweep once per iteration and reports the
// final RHHH metric.
func sweepBench(b *testing.B, metric func(experiments.SweepConfig) float64) {
	cfg := experiments.SweepConfig{
		Epsilon: 0.02, Delta: 0.05, Theta: 0.1,
		Checkpoints: []uint64{400_000},
		Profiles:    []string{"sanjose14"},
	}
	var last float64
	for i := 0; i < b.N; i++ {
		last = metric(cfg)
	}
	b.ReportMetric(last, "error-ratio")
	b.ReportMetric(0, "ns/op") // the ratio, not the time, is the artifact
}

// BenchmarkFig2AccuracyError regenerates the Figure 2 end point.
func BenchmarkFig2AccuracyError(b *testing.B) {
	sweepBench(b, func(cfg experiments.SweepConfig) float64 {
		tabs := experiments.Fig2Accuracy(cfg)
		return lastFloat(b, tabs[0].Rows[len(tabs[0].Rows)-1][2])
	})
}

// BenchmarkFig3CoverageError regenerates the Figure 3 end point.
func BenchmarkFig3CoverageError(b *testing.B) {
	sweepBench(b, func(cfg experiments.SweepConfig) float64 {
		tabs := experiments.Fig3Coverage(cfg)
		return lastFloat(b, tabs[0].Rows[len(tabs[0].Rows)-1][2])
	})
}

// BenchmarkFig4FalsePositives regenerates a Figure 4 end point (2D bytes).
func BenchmarkFig4FalsePositives(b *testing.B) {
	cfg := experiments.SweepConfig{
		Epsilon: 0.02, Delta: 0.05, Theta: 0.1,
		Checkpoints: []uint64{200_000},
		Profiles:    []string{"sanjose14"},
	}
	var last float64
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig4FalsePositives(cfg)
		t := tabs[len(tabs)-1]
		last = lastFloat(b, t.Rows[len(t.Rows)-1][2])
	}
	b.ReportMetric(last, "fpr")
}

// BenchmarkFig6Dataplane measures per-packet datapath cost with each hook —
// the Figure 6 bars as ns/op.
func BenchmarkFig6Dataplane(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	h := dom.Size()
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	packets := netgen.Prebuild(gen, 1<<16)
	mask := len(packets) - 1

	mkDP := func(hook vswitch.Hook) *vswitch.Datapath {
		var ft vswitch.FlowTable
		ft.Add(vswitch.Rule{Match: vswitch.Match{}, Action: vswitch.Action{OutPort: 1}})
		return vswitch.NewDatapath(&ft, vswitch.NewEMC(8192, 1), hook)
	}
	b.Run("OVS-unmodified", func(b *testing.B) {
		dp := mkDP(vswitch.NopHook{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.Process(packets[i&mask])
		}
	})
	b.Run("10-RHHH", func(b *testing.B) {
		eng := core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, V: 10 * h, Seed: 1})
		dp := mkDP(vswitch.HookFunc(func(p trace.Packet) { eng.Update(p.Key2()) }))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.Process(packets[i&mask])
		}
	})
	b.Run("RHHH", func(b *testing.B) {
		eng := core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, V: h, Seed: 1})
		dp := mkDP(vswitch.HookFunc(func(p trace.Packet) { eng.Update(p.Key2()) }))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.Process(packets[i&mask])
		}
	})
	b.Run("PartialAncestry", func(b *testing.B) {
		alg := ancestry.New(dom, 0.001, ancestry.Partial)
		dp := mkDP(vswitch.HookFunc(func(p trace.Packet) { alg.Update(p.Key2()) }))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.Process(packets[i&mask])
		}
	})
	b.Run("MST", func(b *testing.B) {
		alg := mst.New(dom, 0.001)
		dp := mkDP(vswitch.HookFunc(func(p trace.Packet) { alg.Update(p.Key2()) }))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.Process(packets[i&mask])
		}
	})
}

// BenchmarkFig7DataplaneV sweeps V: per-packet datapath cost with the RHHH
// hook at V = H, 2H, 5H, 10H.
func BenchmarkFig7DataplaneV(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	h := dom.Size()
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	packets := netgen.Prebuild(gen, 1<<16)
	mask := len(packets) - 1
	for _, m := range []int{1, 2, 5, 10} {
		b.Run(vName(m), func(b *testing.B) {
			eng := core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, V: m * h, Seed: 1})
			var ft vswitch.FlowTable
			ft.Add(vswitch.Rule{Match: vswitch.Match{}, Action: vswitch.Action{OutPort: 1}})
			dp := vswitch.NewDatapath(&ft, vswitch.NewEMC(8192, 1),
				vswitch.HookFunc(func(p trace.Packet) { eng.Update(p.Key2()) }))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dp.Process(packets[i&mask])
			}
		})
	}
}

// BenchmarkFig8DistributedV sweeps V for the distributed deployment: the
// switch-side cost (draw + batch + in-process send).
func BenchmarkFig8DistributedV(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	h := dom.Size()
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	packets := netgen.Prebuild(gen, 1<<16)
	mask := len(packets) - 1
	for _, m := range []int{1, 2, 5, 10} {
		b.Run(vName(m), func(b *testing.B) {
			col := vswitch.NewCollector(dom, 0.001, 0.001, m*h)
			tr := vswitch.NewInProcTransport(col, 1024)
			defer tr.Close()
			hook := vswitch.NewSamplerHook(dom, m*h, 1, tr, 0)
			var ft vswitch.FlowTable
			ft.Add(vswitch.Rule{Match: vswitch.Match{}, Action: vswitch.Action{OutPort: 1}})
			dp := vswitch.NewDatapath(&ft, vswitch.NewEMC(8192, 1), hook)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dp.Process(packets[i&mask])
			}
		})
	}
}

func vName(m int) string {
	if m == 1 {
		return "V=H"
	}
	return fmt.Sprintf("V=%dH", m)
}

// BenchmarkAblationMultiUpdate measures the r-updates variant's per-packet
// cost (Corollary 6.8: convergence ÷ r at cost × r).
func BenchmarkAblationMultiUpdate(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	keys := prebuiltKeys2D(1 << 16)
	for _, r := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			eng := core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, R: r, Seed: 1})
			benchUpdates(b, keys, eng.Update)
		})
	}
}

// BenchmarkAblationBackends compares the HH backends inside the engine.
func BenchmarkAblationBackends(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	keys := prebuiltKeys2D(1 << 16)
	b.Run("SpaceSaving", func(b *testing.B) {
		benchUpdates(b, keys, core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, Seed: 1}).Update)
	})
	b.Run("CHK", func(b *testing.B) {
		benchUpdates(b, keys, core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, Seed: 1, Backend: core.CHKBackend}).Update)
	})
}

// BenchmarkAblationStrawman contrasts RHHH with the sampled-MST strawman at
// equal sampling rates: similar amortized cost, very different worst case
// (run with -benchtime and compare max latencies via the hhhbench
// worstcase ablation).
func BenchmarkAblationStrawman(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	h := dom.Size()
	keys := prebuiltKeys2D(1 << 16)
	b.Run("10-RHHH", func(b *testing.B) {
		benchUpdates(b, keys, core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, V: 10 * h, Seed: 1}).Update)
	})
	b.Run("SampledMST", func(b *testing.B) {
		benchUpdates(b, keys, mst.NewSampled(dom, 0.001, 0.001, 10*h, 1).Update)
	})
}

// BenchmarkOutput measures the Output (query) cost after a realistic fill —
// queries are rare in deployment but must stay interactive.
func BenchmarkOutput(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.001, Delta: 0.001, Seed: 1})
	keys := prebuiltKeys2D(1 << 16)
	for i := 0; i < 2_000_000; i++ {
		eng.Update(keys[i&(len(keys)-1)])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.Output(0.01)
	}
}

// BenchmarkShardedHeavyHitters measures the pause-free sharded query path:
// per-shard snapshot capture, the reusable snapshot merge, flat extraction
// and rendering. One packet lands on a shard before every query so the
// unchanged-state shortcuts cannot fire — this is the steady-state cost of
// querying a live monitor, and the headline number the CI bench smoke
// records (0 allocs/op once warm; see BENCH_query.json for history).
func BenchmarkShardedHeavyHitters(b *testing.B) {
	s := filledSharded(b)
	w := s.Worker(0)
	src, dst := v4addr(0x0a010101), v4addr(0x14020202)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Update(src, dst)
		w.Sync() // publish so the query sees the packet (no shortcut)
		_ = s.HeavyHitters(0.05)
	}
}

// BenchmarkShardedHeavyHittersIdle is the same query with no traffic between
// queries: capture recognizes the engines as unchanged, the merge recognizes
// its inputs, and the extraction short-circuits to the retained result — the
// cost of polling an idle monitor.
func BenchmarkShardedHeavyHittersIdle(b *testing.B) {
	s := filledSharded(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.HeavyHitters(0.05)
	}
}

// BenchmarkShardedFreshQuery times a query that finds new publications at
// a converged-regime state: 2 workers, 2D-Bytes, ε = δ = 0.001, V = 10·H,
// warmed to twice N* (the stream length below which the sampling
// correction alone clears θN) at θ = 0.01, with 50,000 more packets per
// worker published before every query, outside the timer. Most lattice
// nodes change between queries, so this is the read cost the query path
// actually pays under traffic; BenchmarkShardedHeavyHitters lands a single
// packet and re-reads one node.
func BenchmarkShardedFreshQuery(b *testing.B) {
	const theta = 0.01
	f := freshQueryState(b, theta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f.feed(50000)
		b.StartTimer()
		if len(f.s.HeavyHitters(theta)) == 0 {
			b.Fatal("no heavy hitters")
		}
	}
}

// freshQuery is BenchmarkShardedFreshQuery's warmed monitor and its
// per-worker packet rings, built once per benchmark binary.
type freshQuery struct {
	s          *rhhh.Sharded
	srcs, dsts [][]netip.Addr
	pos        []int
}

var (
	freshOnce sync.Once
	freshSt   *freshQuery
)

func freshQueryState(b *testing.B, theta float64) *freshQuery {
	b.Helper()
	freshOnce.Do(func() {
		const workers, ring = 2, 1 << 16
		cfg := rhhh.Config{Dims: 2, Epsilon: 0.001, Delta: 0.001, V: 250, Seed: 1}
		s, err := rhhh.NewSharded(cfg, workers)
		if err != nil {
			panic(err)
		}
		f := &freshQuery{s: s, pos: make([]int, workers)}
		gen := trace.NewSynthetic(trace.Profile("chicago16"))
		for range workers {
			srcs, dsts := make([]netip.Addr, ring), make([]netip.Addr, ring)
			for i := range srcs {
				p, _ := gen.Next()
				srcs[i], dsts[i] = v4addr(p.SrcIP.IPv4()), v4addr(p.DstIP.IPv4())
			}
			f.srcs, f.dsts = append(f.srcs, srcs), append(f.dsts, dsts)
		}
		// N* solves 2·Z(1−δ)·√(N·V) = θN.
		z := 2 * stats.Z(cfg.Delta)
		nStar := z * z * float64(cfg.V) / (theta * theta)
		f.feed(int(2*nStar) / workers)
		freshSt = f
	})
	if freshSt == nil {
		b.Fatal("fresh-query state failed to build")
	}
	return freshSt
}

// feed lands n packets on every worker, one goroutine per worker, and
// publishes them.
func (f *freshQuery) feed(n int) {
	var wg sync.WaitGroup
	for w := range f.srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := f.s.Worker(w)
			srcs, dsts := f.srcs[w], f.dsts[w]
			for left := n; left > 0; {
				off := f.pos[w]
				m := min(left, len(srcs)-off, 4096)
				wk.UpdateBatch(srcs[off:off+m], dsts[off:off+m])
				f.pos[w] = (off + m) % len(srcs)
				left -= m
			}
			wk.Sync()
		}()
	}
	wg.Wait()
}

// BenchmarkWindowedHeavyHitters times a sliding Windowed's on-demand query:
// 2D-Bytes, ε = δ = 0.01, k = 4 sub-windows of ⌈ψ/k⌉ chicago16 packets,
// warmed until the ring is full. Before every query 16,384 more packets are
// fed and every flushed window delivered, outside the timer, so each query
// reads a changed open sub-window. At the covered window (≈ ψ) θ = 0.05 is
// past N* and θ = 0.02 below it, where every monitored key qualifies.
func BenchmarkWindowedHeavyHitters(b *testing.B) {
	for _, theta := range []float64{0.05, 0.02} {
		b.Run(fmt.Sprintf("theta=%g", theta), func(b *testing.B) {
			const k, ring = 4, 1 << 16
			cfg := rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, Seed: 1}
			size := uint64(math.Ceil(rhhh.MustNew(cfg).Psi() / k))
			w, err := rhhh.NewSlidingWindowed(cfg, size, k, theta, func(rhhh.WindowResult) {})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			gen := trace.NewSynthetic(trace.Profile("chicago16"))
			srcs, dsts := make([]netip.Addr, ring), make([]netip.Addr, ring)
			for i := range srcs {
				p, _ := gen.Next()
				srcs[i], dsts[i] = v4addr(p.SrcIP.IPv4()), v4addr(p.DstIP.IPv4())
			}
			pos := 0
			feed := func(n int) {
				for n > 0 {
					m := min(n, ring-pos, 4096)
					w.UpdateBatch(srcs[pos:pos+m], dsts[pos:pos+m])
					pos = (pos + m) % ring
					n -= m
				}
				w.Sync()
			}
			feed(k * int(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				feed(16384)
				b.StartTimer()
				if len(w.HeavyHitters(theta)) == 0 {
					b.Fatal("no heavy hitters")
				}
			}
		})
	}
}

// filledSharded builds the 4-shard acceptance workload (2D-Bytes, ε=0.01,
// ~330k packets of chicago16).
func filledSharded(b *testing.B) *rhhh.Sharded {
	b.Helper()
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, Seed: 1}, 4)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	srcs := make([]netip.Addr, 8192)
	dsts := make([]netip.Addr, 8192)
	for i := range srcs {
		p, _ := gen.Next()
		srcs[i] = v4addr(p.SrcIP.IPv4())
		dsts[i] = v4addr(p.DstIP.IPv4())
	}
	for i := 0; i < 40; i++ { // ~330k packets across the shards
		s.Worker(i%s.Workers()).UpdateBatch(srcs, dsts)
	}
	s.Sync()
	return s
}

// BenchmarkQueryExtract isolates the core extraction stage on the
// acceptance workload (2D-Bytes, ε=0.01, θ=0.05): a cold extractor per
// query (the pre-Extractor shape) versus a warm reused one, and the warm
// pruned scan versus the warm full scan that visits every key, with the
// snapshot re-captured after a trickle of updates before every query so no
// variant can ride the unchanged shortcut.
func BenchmarkQueryExtract(b *testing.B) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	mkEngine := func() *core.Engine[uint64] {
		eng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, Seed: 1})
		keys := prebuiltKeys2D(1 << 16)
		for i := 0; i < 330_000; i++ {
			eng.Update(keys[i&(len(keys)-1)])
		}
		return eng
	}
	run := func(b *testing.B, ex *core.Extractor[uint64], fresh bool) {
		eng := mkEngine()
		keys := prebuiltKeys2D(1 << 10)
		var buf core.EngineSnapshot[uint64]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Update(keys[i&(len(keys)-1)])
			es := eng.SnapshotInto(&buf)
			if fresh {
				ex = core.NewExtractor[uint64](dom)
			}
			_ = ex.ExtractSnapshot(es, 0.05)
		}
	}
	b.Run("Cold", func(b *testing.B) { run(b, nil, true) })
	b.Run("WarmPruned", func(b *testing.B) {
		run(b, core.NewExtractor[uint64](dom), false)
	})
	b.Run("WarmFull", func(b *testing.B) {
		ex := core.NewExtractor[uint64](dom)
		ex.SetMaxGrowth(-1) // visit every key of every node
		run(b, ex, false)
	})
}

// BenchmarkWatchTick measures one standing-query tick on the sharded
// acceptance workload with a registered callback subscription (θ=0.05,
// MinDelta suppressing estimator jitter). Busy lands one packet before every
// tick, so capture re-copies the touched node and the extraction re-runs —
// the steady-state cost of watching a live monitor; Idle ticks with no
// traffic, riding the unchanged-state shortcuts end to end — the cost of a
// watch on a quiet monitor. Both are 0 allocs/op once warm (pinned by
// TestWatchTickZeroAlloc); history in BENCH_watch.json.
func BenchmarkWatchTick(b *testing.B) {
	build := func(b *testing.B) *rhhh.Sharded {
		s := filledSharded(b)
		_, err := s.Watch(rhhh.WatchOptions{
			Theta:    0.05,
			MinDelta: 1e12, // membership-only events: ticks deliver nothing
			Interval: time.Hour,
			OnDelta:  func(rhhh.Delta) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		s.TickWatch()
		return s
	}
	b.Run("Busy", func(b *testing.B) {
		s := build(b)
		defer s.Close()
		w := s.Worker(0)
		src, dst := v4addr(0x0a010101), v4addr(0x14020202)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Update(src, dst)
			w.Sync() // publish so the tick sees the packet
			s.TickWatch()
		}
	})
	b.Run("Idle", func(b *testing.B) {
		s := build(b)
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.TickWatch()
		}
	})
}

// scaleStream is one producer's prebuilt packet ring for the scaling
// benchmark. Each worker gets a distinct segment of the chicago16 trace so
// the per-worker streams are disjoint, as they would be under RSS.
type scaleStream struct {
	srcs, dsts []netip.Addr
}

func scaleStreams(n int) []scaleStream {
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	out := make([]scaleStream, n)
	for wi := range out {
		srcs := make([]netip.Addr, 8192)
		dsts := make([]netip.Addr, 8192)
		for i := range srcs {
			p, _ := gen.Next()
			srcs[i] = v4addr(p.SrcIP.IPv4())
			dsts[i] = v4addr(p.DstIP.IPv4())
		}
		out[wi] = scaleStream{srcs: srcs, dsts: dsts}
	}
	return out
}

// scaleWorkerCounts is 1/2/4/NumCPU, deduplicated and sorted.
func scaleWorkerCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(counts)
	out := counts[:1]
	for _, c := range counts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkShardedScaling contrasts the PR 7 mutex ingest path (every batch
// serialized through a per-shard lock, queries pausing shards to capture)
// with the shared-nothing publication path (lock-free thread-local engines,
// epoch-versioned snapshots) at 1/2/4/NumCPU producing goroutines. b.N
// packets are split across the workers, so ns/op is aggregate wall time per
// packet: on a multicore host it falls with worker count on the LockFree
// side; on any host the per-packet delta is the synchronization overhead the
// refactor removed. PerPacket is the worst case for the mutex path (one
// Lock/Unlock per packet); Batch256 amortizes the lock DPDK-style. Busy runs
// a query goroutine hammering HeavyHitters(θ=0.05) throughout — on the mutex
// path every query pauses each shard in turn, on the lock-free path it only
// reads published snapshots. Medians are recorded in BENCH_scale.json.
func BenchmarkShardedScaling(b *testing.B) {
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, V: 250, Seed: 1}
	counts := scaleWorkerCounts()
	streams := scaleStreams(counts[len(counts)-1])
	const prefillRounds = 6 // ~49k packets per worker: summaries full, eviction path live

	produce := func(per int, st scaleStream, batch bool,
		update func(src, dst netip.Addr), updateBatch func(srcs, dsts []netip.Addr)) {
		mask := len(st.srcs) - 1
		if batch {
			const burst = 256
			for i := 0; i < per; i += burst {
				off := i & mask
				updateBatch(st.srcs[off:off+burst], st.dsts[off:off+burst])
			}
			return
		}
		for i := 0; i < per; i++ {
			update(st.srcs[i&mask], st.dsts[i&mask])
		}
	}

	runLockFree := func(b *testing.B, workers int, batch, busy bool) {
		s, err := rhhh.NewSharded(cfg, workers)
		if err != nil {
			b.Fatal(err)
		}
		for wi := 0; wi < workers; wi++ {
			w := s.Worker(wi)
			for r := 0; r < prefillRounds; r++ {
				w.UpdateBatch(streams[wi].srcs, streams[wi].dsts)
			}
		}
		s.Sync()
		per := (b.N + workers - 1) / workers
		done := make(chan struct{})
		var wg, qwg sync.WaitGroup
		if busy {
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					_ = s.HeavyHitters(0.05)
				}
			}()
		}
		b.ResetTimer()
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := s.Worker(wi)
				produce(per, streams[wi], batch, w.Update, w.UpdateBatch)
			}(wi)
		}
		wg.Wait()
		b.StopTimer()
		close(done)
		qwg.Wait()
	}

	runMutex := func(b *testing.B, workers int, batch, busy bool) {
		s, err := rhhh.NewLockedShardedForTest(cfg, workers)
		if err != nil {
			b.Fatal(err)
		}
		for wi := 0; wi < workers; wi++ {
			sh := s.Shard(wi)
			for r := 0; r < prefillRounds; r++ {
				sh.UpdateBatch(streams[wi].srcs, streams[wi].dsts)
			}
		}
		per := (b.N + workers - 1) / workers
		done := make(chan struct{})
		var wg, qwg sync.WaitGroup
		if busy {
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					_ = s.HeavyHitters(0.05)
				}
			}()
		}
		b.ResetTimer()
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				sh := s.Shard(wi)
				produce(per, streams[wi], batch, sh.Update, sh.UpdateBatch)
			}(wi)
		}
		wg.Wait()
		b.StopTimer()
		close(done)
		qwg.Wait()
	}

	for _, mode := range []struct {
		name string
		run  func(b *testing.B, workers int, batch, busy bool)
	}{{"Mutex", runMutex}, {"LockFree", runLockFree}} {
		b.Run(mode.name, func(b *testing.B) {
			for _, w := range counts {
				b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
					for _, shape := range []struct {
						name  string
						batch bool
					}{{"PerPacket", false}, {"Batch256", true}} {
						b.Run(shape.name, func(b *testing.B) {
							b.Run("Idle", func(b *testing.B) { mode.run(b, w, shape.batch, false) })
							b.Run("Busy", func(b *testing.B) { mode.run(b, w, shape.batch, true) })
						})
					}
				})
			}
		})
	}
}

func v4addr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// lastFloat parses a table cell (helper for the sweep benchmarks).
func lastFloat(b *testing.B, cell string) float64 {
	b.Helper()
	var v float64
	if _, err := fmt.Sscan(cell, &v); err != nil {
		b.Fatalf("cell %q: %v", cell, err)
	}
	return v
}
