package rhhh_test

// Allocation pins and the overhead benchmark for the production telemetry
// layer: instrumentation must keep the hot paths at zero allocations and
// within noise of the uninstrumented baseline (the watermark publish is the
// only added work, amortized over thousands of packets).

import (
	"net/netip"
	"testing"

	"rhhh"
	"rhhh/internal/telemetry"
	"rhhh/internal/trace"
)

func obsStreams(n int) (srcs, dsts []netip.Addr) {
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	srcs = make([]netip.Addr, n)
	dsts = make([]netip.Addr, n)
	for i := range srcs {
		p, _ := gen.Next()
		srcs[i] = v4addr(p.SrcIP.IPv4())
		dsts[i] = v4addr(p.DstIP.IPv4())
	}
	return srcs, dsts
}

// TestInstrumentedUpdateZeroAlloc pins the instrumented ingest paths at
// zero allocations per operation: the AllocsPerRun windows are long enough
// to cross the telemetry publish watermark repeatedly, so the amortized
// TelemetryInto is included in the pin.
func TestInstrumentedUpdateZeroAlloc(t *testing.T) {
	srcs, dsts := obsStreams(256)
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, V: 250, Seed: 4}

	m := rhhh.MustNew(cfg)
	m.Instrument(telemetry.NewRegistry())
	for i := 0; i < 40; i++ { // warm: summaries allocated, eviction path live
		m.UpdateBatch(srcs, dsts)
	}
	if n := testing.AllocsPerRun(100, func() { m.UpdateBatch(srcs, dsts) }); n != 0 {
		t.Errorf("instrumented Monitor.UpdateBatch allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Update(srcs[0], dsts[0]) }); n != 0 {
		t.Errorf("instrumented Monitor.Update allocates %v/op", n)
	}

	// A huge publication cadence pins the between-publication worker path,
	// exactly like the uninstrumented pin in batch_test.go: publication
	// itself may allocate node buffers (while a pin holds a slot) with or
	// without telemetry, and is amortized over the cadence.
	s, err := rhhh.NewShardedOptions(cfg, 2,
		rhhh.ShardedOptions{PublishPackets: 1 << 62, PublishBatches: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Instrument(telemetry.NewRegistry())
	for i := 0; i < 40; i++ {
		s.Worker(0).UpdateBatch(srcs, dsts)
	}
	if n := testing.AllocsPerRun(100, func() { s.Worker(0).UpdateBatch(srcs, dsts) }); n != 0 {
		t.Errorf("instrumented Worker.UpdateBatch allocates %v/op", n)
	}
	// An idle Sync republishes nothing but still runs the full telemetry
	// publication (counter stores + the O(H) engine walk): must be alloc-free.
	s.Worker(0).Sync()
	if n := testing.AllocsPerRun(100, func() { s.Worker(0).Sync() }); n != 0 {
		t.Errorf("instrumented idle Worker.Sync allocates %v/op", n)
	}
}

// TestInstrumentedWatchTickZeroAlloc is TestWatchTickZeroAlloc with the
// telemetry layer live: the tick-latency observation and counter stores
// must not break the zero-allocation tick.
func TestInstrumentedWatchTickZeroAlloc(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{
		Dims: 1, Granularity: rhhh.Byte,
		Epsilon: 0.01, Delta: 0.01, Seed: 4,
	})
	m.Instrument(telemetry.NewRegistry())
	heavy := netip.MustParseAddr("10.1.2.3")
	sub, err := m.Watch(rhhh.WatchOptions{
		Theta:    0.5,
		MinDelta: 1e15,
		OnDelta:  func(rhhh.Delta) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 200_000; i++ {
		m.Update(heavy, netip.Addr{})
	}
	m.Tick()
	m.Tick()
	if n := testing.AllocsPerRun(100, func() { m.Tick() }); n != 0 {
		t.Errorf("instrumented idle watch tick allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Update(heavy, netip.Addr{})
		m.Tick()
	}); n != 0 {
		t.Errorf("instrumented busy watch tick allocates %v per run", n)
	}
}

// TestInstrumentedScrapeZeroAlloc pins a steady-state scrape of a fully
// instrumented sharded monitor — every worker block, the query block and
// the watch block — at zero allocations per pass.
func TestInstrumentedScrapeZeroAlloc(t *testing.T) {
	srcs, dsts := obsStreams(256)
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, V: 250, Seed: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	for w := 0; w < 2; w++ {
		for i := 0; i < 10; i++ {
			s.Worker(w).UpdateBatch(srcs, dsts)
		}
		s.Worker(w).Sync()
	}
	s.HeavyHitters(0.05)   // exercise the query block too
	dst := reg.Gather(nil) // warm: buffer reaches steady-state size
	if len(dst) == 0 {
		t.Fatal("empty exposition")
	}
	allocs := testing.AllocsPerRun(100, func() { dst = reg.Gather(dst[:0]) })
	if allocs != 0 {
		t.Errorf("steady-state scrape allocates %v per pass, want 0", allocs)
	}
}

// BenchmarkTelemetryOverhead measures the full cost of the instrumentation
// on the batched 2D ingest path: the Disabled leg runs the uninstrumented
// branch (one nil check per batch), the Instrumented leg adds the watermark
// countdown and the amortized O(H) publish every 4096 packets. Recorded in
// BENCH_obs.json; the acceptance bound is 2%.
func BenchmarkTelemetryOverhead(b *testing.B) {
	srcs, dsts := obsStreams(8192)
	for _, tc := range []struct {
		name string
		inst bool
	}{{"Disabled", false}, {"Instrumented", true}} {
		b.Run(tc.name, func(b *testing.B) {
			m := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.001, Delta: 0.001, V: 250, Seed: 1})
			if tc.inst {
				m.Instrument(telemetry.NewRegistry())
			}
			const burst = 256
			mask := len(srcs) - 1
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				off := i & mask
				m.UpdateBatch(srcs[off:off+burst], dsts[off:off+burst])
			}
		})
	}
}

// TestWatchTelemetryPrecedesDelivery: a watch tick stores its counters and
// latency observation before it delivers any delta, so a scrape made on
// receipt of a delta — here from inside the synchronous callback — already
// reflects the tick that produced it.
func TestWatchTelemetryPrecedesDelivery(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.01, Delta: 0.01, Seed: 4})
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	scrape := func(family, sample string) float64 {
		fams, err := telemetry.ParseProm(string(reg.Gather(nil)))
		if err != nil {
			t.Fatal(err)
		}
		s, ok := telemetry.Lookup(fams, family, sample, "")
		if !ok {
			t.Fatalf("%s missing from the scrape", sample)
		}
		return s.Value
	}
	var delivered uint64
	sub, err := m.Watch(rhhh.WatchOptions{Theta: 0.2, OnDelta: func(d rhhh.Delta) {
		delivered++
		ticks := scrape("rhhh_watch_ticks_total", "rhhh_watch_ticks_total")
		deliveries := scrape("rhhh_watch_deliveries_total", "rhhh_watch_deliveries_total")
		latencies := scrape("rhhh_watch_tick_seconds", "rhhh_watch_tick_seconds_count")
		if ticks != float64(d.Seq) || latencies != float64(d.Seq) || deliveries != float64(delivered) {
			t.Errorf("delta %d: scrape reads %v ticks, %v latencies, %v deliveries; want %d, %d, %d",
				d.Seq, ticks, latencies, deliveries, d.Seq, d.Seq, delivered)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	heavy := []netip.Addr{netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("192.0.2.7")}
	for i := range 4 {
		for range 5000 {
			m.Update(heavy[i%2], netip.Addr{})
		}
		m.Tick()
	}
	if delivered == 0 {
		t.Fatal("no delta delivered")
	}
}

// TestWindowedInstrument: a sliding Windowed instrumented before traffic
// counts one flush per completed sub-window and observes the background
// merges, visible to a scrape once Sync has joined them.
func TestWindowedInstrument(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, Seed: 5}
	window := uint64(rhhh.Psi(0.05, 0.05, 5))/2 + 1000
	w, err := rhhh.NewSlidingWindowed(cfg, window, 2, 0.3, func(rhhh.WindowResult) {})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := telemetry.NewRegistry()
	w.Instrument(reg)
	heavy := netip.MustParseAddr("10.1.2.3")
	for i := uint64(0); i < 3*window+window/2; i++ {
		w.Update(heavy, netip.Addr{})
	}
	w.Sync()
	fams, err := telemetry.ParseProm(string(reg.Gather(nil)))
	if err != nil {
		t.Fatal(err)
	}
	flushes, ok := telemetry.Lookup(fams, "rhhh_window_flushes_total", "rhhh_window_flushes_total", "")
	if !ok {
		t.Fatal("rhhh_window_flushes_total missing from the scrape")
	}
	if w.Completed() != 3 || flushes.Value != float64(w.Completed()) {
		t.Fatalf("scrape reads %v flushes after %d completed sub-windows, want 3 and equal", flushes.Value, w.Completed())
	}
	merges, ok := telemetry.Lookup(fams, "rhhh_window_merge_seconds", "rhhh_window_merge_seconds_count", "")
	if !ok || merges.Value == 0 {
		t.Fatalf("rhhh_window_merge_seconds_count = %v (present %v), want > 0 after Sync", merges.Value, ok)
	}
}
