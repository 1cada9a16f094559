package rhhh_test

import (
	"net/netip"
	"testing"

	"rhhh"
	"rhhh/internal/fastrand"
)

func randAddr4(r *fastrand.Source) netip.Addr {
	v := uint32(r.Uint64())
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// TestMonitorUpdateBatchMatchesSequential: the public batched update must be
// indistinguishable from per-packet updates for the same seed, at V = H and
// V > H.
func TestMonitorUpdateBatchMatchesSequential(t *testing.T) {
	for _, vMult := range []int{0, 10} {
		cfg := rhhh.Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 9}
		probe := rhhh.MustNew(cfg)
		cfg.V = vMult * probe.H()

		const n = 60_000
		r := fastrand.New(10)
		srcs := make([]netip.Addr, n)
		dsts := make([]netip.Addr, n)
		for i := range srcs {
			srcs[i] = randAddr4(r)
			dsts[i] = randAddr4(r)
		}

		seq := rhhh.MustNew(cfg)
		for i := range srcs {
			seq.Update(srcs[i], dsts[i])
		}
		bat := rhhh.MustNew(cfg)
		for i := 0; i < n; {
			end := i + 1 + int(r.Uint64n(5000))
			if end > n {
				end = n
			}
			bat.UpdateBatch(srcs[i:end], dsts[i:end])
			i = end
		}

		if seq.N() != bat.N() {
			t.Fatalf("V=%d: N %d vs %d", cfg.V, seq.N(), bat.N())
		}
		a, b := seq.HeavyHitters(0.01), bat.HeavyHitters(0.01)
		if len(a) != len(b) {
			t.Fatalf("V=%d: result count %d vs %d", cfg.V, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("V=%d: result %d differs: %+v vs %+v", cfg.V, i, a[i], b[i])
			}
		}
	}
}

// TestMonitorUpdateBatchOneDim: dsts == nil drives the 1D hierarchy.
func TestMonitorUpdateBatchOneDim(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.02, Delta: 0.05, Seed: 3}
	m := rhhh.MustNew(cfg)
	heavy := netip.AddrFrom4([4]byte{10, 1, 2, 3})
	r := fastrand.New(4)
	srcs := make([]netip.Addr, 50_000)
	for i := range srcs {
		if r.Uint64n(2) == 0 {
			srcs[i] = heavy
		} else {
			srcs[i] = randAddr4(r)
		}
	}
	m.UpdateBatch(srcs, nil)
	if m.N() != uint64(len(srcs)) {
		t.Fatalf("N = %d", m.N())
	}
	for _, h := range m.HeavyHitters(0.2) {
		if h.Level == 0 && h.Src.Addr() == heavy {
			return
		}
	}
	t.Fatal("heavy source missing from batched 1D monitor")
}

// TestMonitorUpdateBatchLengthMismatchPanics guards the API contract.
func TestMonitorUpdateBatchLengthMismatchPanics(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.1, Delta: 0.1})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	m.UpdateBatch(make([]netip.Addr, 3), make([]netip.Addr, 2))
}

// TestMonitorUpdateWeightedBatchMatchesSequential: the public weighted batch
// must be indistinguishable from per-packet UpdateWeighted for the same
// seed, at V = H and V > H, including zero and heavy weights.
func TestMonitorUpdateWeightedBatchMatchesSequential(t *testing.T) {
	for _, vMult := range []int{0, 10} {
		cfg := rhhh.Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 13}
		probe := rhhh.MustNew(cfg)
		cfg.V = vMult * probe.H()

		const n = 60_000
		r := fastrand.New(14)
		srcs := make([]netip.Addr, n)
		dsts := make([]netip.Addr, n)
		ws := make([]uint64, n)
		for i := range srcs {
			srcs[i] = randAddr4(r)
			dsts[i] = randAddr4(r)
			switch r.Uint64n(10) {
			case 0:
				ws[i] = 0
			case 1:
				ws[i] = 1 + r.Uint64n(100_000)
			default:
				ws[i] = 1 + r.Uint64n(8)
			}
		}

		seq := rhhh.MustNew(cfg)
		for i := range srcs {
			seq.UpdateWeighted(srcs[i], dsts[i], ws[i])
		}
		bat := rhhh.MustNew(cfg)
		for i := 0; i < n; {
			end := i + 1 + int(r.Uint64n(5000))
			if end > n {
				end = n
			}
			bat.UpdateWeightedBatch(srcs[i:end], dsts[i:end], ws[i:end])
			i = end
		}

		if seq.N() != bat.N() {
			t.Fatalf("V=%d: N %d vs %d", cfg.V, seq.N(), bat.N())
		}
		a, b := seq.HeavyHitters(0.01), bat.HeavyHitters(0.01)
		if len(a) != len(b) {
			t.Fatalf("V=%d: result count %d vs %d", cfg.V, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("V=%d: result %d differs: %+v vs %+v", cfg.V, i, a[i], b[i])
			}
		}
	}
}

// TestMonitorUpdateWeightedBatchValidation guards the API contract.
func TestMonitorUpdateWeightedBatchValidation(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.1, Delta: 0.1})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("srcs/ws mismatch", func() {
		m.UpdateWeightedBatch(make([]netip.Addr, 3), make([]netip.Addr, 3), make([]uint64, 2))
	})
	mustPanic("srcs/dsts mismatch", func() {
		m.UpdateWeightedBatch(make([]netip.Addr, 3), make([]netip.Addr, 2), make([]uint64, 3))
	})
	mustPanic("nil dsts on 2D", func() {
		m.UpdateWeightedBatch(make([]netip.Addr, 3), nil, make([]uint64, 3))
	})
}

// TestMonitorBatchSurfacesZeroAlloc pins the steady-state allocation
// contract of the public batch surfaces.
func TestMonitorBatchSurfacesZeroAlloc(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, V: 250, Seed: 3})
	r := fastrand.New(5)
	srcs := make([]netip.Addr, 256)
	dsts := make([]netip.Addr, 256)
	ws := make([]uint64, 256)
	for i := range srcs {
		srcs[i] = randAddr4(r)
		dsts[i] = randAddr4(r)
		ws[i] = 1 + r.Uint64n(9)
	}
	for i := 0; i < 500; i++ { // fill summaries, grow scratch
		m.UpdateBatch(srcs, dsts)
		m.UpdateWeightedBatch(srcs, dsts, ws)
	}
	if n := testing.AllocsPerRun(100, func() { m.UpdateBatch(srcs, dsts) }); n != 0 {
		t.Errorf("Monitor.UpdateBatch allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.UpdateWeightedBatch(srcs, dsts, ws) }); n != 0 {
		t.Errorf("Monitor.UpdateWeightedBatch allocates %v/op", n)
	}

	// A huge publication cadence pins the between-publication hot path: a
	// worker batch must allocate nothing (publication costs are amortized
	// and measured separately in TestShardedWarmQueryZeroAlloc).
	s, err := rhhh.NewShardedOptions(rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, V: 250, Seed: 4}, 4,
		rhhh.ShardedOptions{PublishPackets: 1 << 62, PublishBatches: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w := s.Worker(i % s.Workers())
		w.UpdateBatch(srcs, dsts)
		w.UpdateWeightedBatch(srcs, dsts, ws)
	}
	if n := testing.AllocsPerRun(100, func() { s.Worker(0).UpdateBatch(srcs, dsts) }); n != 0 {
		t.Errorf("Worker.UpdateBatch allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Worker(0).UpdateWeightedBatch(srcs, dsts, ws) }); n != 0 {
		t.Errorf("Worker.UpdateWeightedBatch allocates %v/op", n)
	}
}
