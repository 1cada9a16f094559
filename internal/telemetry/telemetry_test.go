package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterOwnershipModel(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Live() != 42 {
		t.Fatalf("live = %d, want 42", c.Live())
	}
	if c.Value() != 0 {
		t.Fatalf("unpublished value = %d, want 0 (scrapers see only published state)", c.Value())
	}
	c.Publish()
	if c.Value() != 42 {
		t.Fatalf("published value = %d, want 42", c.Value())
	}
}

func TestCell(t *testing.T) {
	var c Cell
	c.Store(7)
	c.Add(3)
	if c.Load() != 10 {
		t.Fatalf("cell = %d, want 10", c.Load())
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {1024, 0}, {1025, 1}, {2048, 1}, {2049, 2},
		{BucketBound(HistBuckets - 1), HistBuckets - 1},
		{BucketBound(HistBuckets-1) + 1, HistBuckets}, // +Inf overflow
	}
	for _, tc := range cases {
		if got := bucketOf(tc.ns); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
	// Bounds must strictly increase (le monotonicity in the exposition).
	for i := 1; i < HistBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("bucket bounds not increasing at %d", i)
		}
	}
}

func TestHistogramRingDrain(t *testing.T) {
	var h Histogram
	// Overfill the ring: the auto-drain at ring-full must not lose samples.
	n := histRingLen + histRingLen/2
	for i := 0; i < n; i++ {
		h.Observe(time.Microsecond) // 1000ns -> bucket 0
	}
	h.Observe(time.Hour) // way past the last finite bound -> +Inf
	h.Publish()
	if got := h.Count(); got != uint64(n+1) {
		t.Fatalf("count = %d, want %d", got, n+1)
	}
	var v histView
	h.load(&v)
	if v.cnt[0] != uint64(n) || v.count != uint64(n+1) {
		t.Fatalf("published bucket 0 = %d, count = %d, want %d, %d", v.cnt[0], v.count, n, n+1)
	}
	wantSum := float64(n)*1e-6 + 3600
	if got := h.SumSeconds(); got < wantSum*0.999 || got > wantSum*1.001 {
		t.Fatalf("sum = %v s, want ~%v s", got, wantSum)
	}
}

// buildRegistry registers one series of every shape with published values.
func buildRegistry() (*Registry, *Histogram) {
	r := NewRegistry()
	var ctr Counter
	ctr.Add(5)
	ctr.Publish()
	r.Counter("t_ops_total", "", "Operations.", &ctr.pub)

	var g Cell
	g.Store(3)
	r.Gauge("t_depth", `{shard="0"}`, "Depth.", &g)
	r.GaugeFunc("t_ratio", "", "Ratio.", func() float64 { return 0.5 })
	r.CounterFunc("t_lazy_total", "", "Lazy.", func() uint64 { return 9 })

	h := &Histogram{}
	h.Observe(2 * time.Microsecond)
	h.Observe(time.Millisecond)
	h.Publish()
	r.Histogram("t_latency_seconds", "", "Latency.", h)

	r.CollectGauge("t_members", "Members.", func(a *Appender) {
		a.U64(`{set="a"}`, 2)
		a.F64(`{set="b"}`, 1.5)
	})
	return r, h
}

// TestRenderGolden parses the registry's own exposition with the strict
// parser and checks every value round-trips.
func TestRenderGolden(t *testing.T) {
	r, _ := buildRegistry()
	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(sb.String())
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, sb.String())
	}
	checks := []struct {
		family, sample, labels string
		want                   float64
	}{
		{"t_ops_total", "t_ops_total", "", 5},
		{"t_depth", "t_depth", `shard="0"`, 3},
		{"t_ratio", "t_ratio", "", 0.5},
		{"t_lazy_total", "t_lazy_total", "", 9},
		{"t_latency_seconds", "t_latency_seconds_count", "", 2},
		{"t_members", "t_members", `set="a"`, 2},
		{"t_members", "t_members", `set="b"`, 1.5},
	}
	for _, c := range checks {
		s, ok := Lookup(fams, c.family, c.sample, c.labels)
		if !ok {
			t.Errorf("%s{%s}: missing", c.sample, c.labels)
			continue
		}
		if s.Value != c.want {
			t.Errorf("%s{%s} = %v, want %v", c.sample, c.labels, s.Value, c.want)
		}
	}
	// Histogram details: the 1ms sample sits above the 2µs one.
	if s, ok := Lookup(fams, "t_latency_seconds", "t_latency_seconds_bucket", `le="+Inf"`); !ok || s.Value != 2 {
		t.Errorf("+Inf bucket: %+v ok=%v", s, ok)
	}
	if got := fams["t_latency_seconds"].Type; got != "histogram" {
		t.Errorf("type = %s", got)
	}
	if got := r.Names(); len(got) != 6 {
		t.Errorf("Names() = %v, want 6 families", got)
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	var c Cell
	r.Counter("dup_total", "", "x", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	r.Counter("dup_total", "", "x", &c)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	var c Cell
	r.Counter("kind_total", "", "x", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("kind_total", `{a="b"}`, "x", &c)
}

// TestDisabledRegistry pins the nil-safety contract telemetry.Disabled
// relies on: every method is a no-op on a nil receiver.
func TestDisabledRegistry(t *testing.T) {
	r := Disabled
	var c Cell
	var h Histogram
	r.Counter("x_total", "", "x", &c)
	r.CounterFunc("y_total", "", "y", func() uint64 { return 1 })
	r.Gauge("g", "", "g", &c)
	r.GaugeFunc("gf", "", "g", func() float64 { return 1 })
	r.Histogram("h", "", "h", &h)
	r.CollectCounter("cc", "c", func(*Appender) {})
	r.CollectGauge("cg", "c", func(*Appender) {})
	if n, err := r.WritePrometheus(&strings.Builder{}); n != 0 || err != nil {
		t.Fatalf("nil WritePrometheus = %d, %v", n, err)
	}
	if got := r.Gather(nil); got != nil {
		t.Fatalf("nil Gather = %q", got)
	}
	if got := r.Names(); got != nil {
		t.Fatalf("nil Names = %v", got)
	}
}

// TestConcurrentScrape exercises the ownership model under the race
// detector: one owner goroutine publishing counters and histograms at full
// speed while scrapers render concurrently.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var ctr Counter
	var h Histogram
	r.Counter("race_ops_total", "", "ops", &ctr.pub)
	r.Histogram("race_lat_seconds", "", "lat", &h)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the owner
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				ctr.Publish()
				h.Publish()
				return
			default:
			}
			ctr.Inc()
			h.Observe(time.Duration(i%1000) * time.Microsecond)
			if i%64 == 0 {
				ctr.Publish()
				h.Publish()
			}
		}
	}()
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() { // scrapers
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				buf = r.Gather(buf[:0])
				if _, err := ParseProm(string(buf)); err != nil {
					t.Errorf("scrape %d: %v", i, err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if ctr.Value() == 0 || h.Count() == 0 {
		t.Fatal("owner made no visible progress")
	}
}

// TestScrapeZeroAlloc pins the steady-state scrape allocation count at
// zero: after a warm-up render sizes the internal buffer, Gather into a
// pre-sized destination must not allocate.
func TestScrapeZeroAlloc(t *testing.T) {
	r, h := buildRegistry()
	dst := r.Gather(nil) // warm: sizes r.buf and dst
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(time.Microsecond) // keep values moving
		h.Publish()
		dst = r.Gather(dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state scrape allocates %v times per pass, want 0", allocs)
	}
}
