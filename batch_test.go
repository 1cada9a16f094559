package rhhh_test

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"testing"

	"rhhh"
	"rhhh/internal/fastrand"
)

func randAddr4(r *fastrand.Source) netip.Addr {
	v := uint32(r.Uint64())
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// batchDiffCases are the configurations the batch differentials run: every
// key carrier (1D/2D × IPv4/IPv6) at V = H, at V = 10·H (the skip sampler)
// and with R = 2 (per-draw sampling, a position sampled twice when both
// draws hit).
func batchDiffCases(seed uint64) []rhhh.Config {
	var out []rhhh.Config
	for _, carrier := range []struct {
		dims int
		v6   bool
	}{{1, false}, {2, false}, {1, true}, {2, true}} {
		cfg := rhhh.Config{Dims: carrier.dims, IPv6: carrier.v6, Epsilon: 0.02, Delta: 0.05, Seed: seed}
		h := rhhh.MustNew(cfg).H()
		for _, draws := range []struct{ vMult, r int }{{1, 0}, {10, 0}, {1, 2}} {
			c := cfg
			c.V, c.R = draws.vMult*h, draws.r
			out = append(out, c)
		}
	}
	return out
}

func batchCaseName(cfg rhhh.Config) string {
	fam := "IPv4"
	if cfg.IPv6 {
		fam = "IPv6"
	}
	return fmt.Sprintf("%dD-%s/V=%d/R=%d", cfg.Dims, fam, cfg.V, cfg.R)
}

// skewedAddr draws an IPv4 or (v6) IPv6 address: half the draws fall in a few
// heavy /16s (2001:db8::/32 subnets on IPv6) so HHH sets reach below the
// root, the rest are uniform. On IPv4, every seventh address comes in its
// IPv4-mapped IPv6 form (::ffff:a.b.c.d), which the monitor counts as IPv4.
func skewedAddr(r *fastrand.Source, v6 bool) netip.Addr {
	v := uint32(r.Uint64())
	if r.Uint64n(2) == 0 {
		v = 0x0a000000 | uint32(r.Uint64n(4))<<16 | uint32(r.Uint64n(4))<<8 | v&0xff
	}
	if v6 {
		var b [16]byte
		b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
		b[4], b[5], b[14], b[15] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		if v>>24 != 0x0a {
			b[8] = byte(r.Uint64())
		}
		return netip.AddrFrom16(b)
	}
	a := [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	if r.Uint64n(7) == 0 {
		return netip.AddrFrom16(netip.AddrFrom4(a).As16())
	}
	return netip.AddrFrom4(a)
}

// batchStream draws n packets for cfg; dsts is nil on 1D monitors.
func batchStream(cfg rhhh.Config, n int, r *fastrand.Source) (srcs, dsts []netip.Addr) {
	srcs = make([]netip.Addr, n)
	for i := range srcs {
		srcs[i] = skewedAddr(r, cfg.IPv6)
	}
	if cfg.Dims == 2 {
		dsts = make([]netip.Addr, n)
		for i := range dsts {
			dsts[i] = skewedAddr(r, cfg.IPv6)
		}
	}
	return srcs, dsts
}

// subSlice returns s[i:j], or nil for a nil s (the 1D dsts).
func subSlice[T any](s []T, i, j int) []T {
	if s == nil {
		return nil
	}
	return s[i:j]
}

// mustMatchMonitors fails unless the two monitors hold bit-identical state:
// equal N and equal snapshot bytes, which pin every counter and so every
// answer. (HHH sets are not compared directly: before convergence the
// sampling correction admits every candidate on the large IPv6 lattices,
// and extraction alone would take a minute.)
func mustMatchMonitors(t *testing.T, want, got *rhhh.Monitor) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("N %d vs %d", want.N(), got.N())
	}
	a, err := want.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot bytes differ")
	}
}

// TestMonitorUpdateBatchMatchesSequential: the public batched update must be
// indistinguishable from per-packet updates for the same seed, on every
// carrier and sampling mode (see batchDiffCases).
func TestMonitorUpdateBatchMatchesSequential(t *testing.T) {
	for _, cfg := range batchDiffCases(9) {
		t.Run(batchCaseName(cfg), func(t *testing.T) {
			const n = 60_000
			r := fastrand.New(10)
			srcs, dsts := batchStream(cfg, n, r)

			seq := rhhh.MustNew(cfg)
			for i := range srcs {
				var dst netip.Addr
				if dsts != nil {
					dst = dsts[i]
				}
				seq.Update(srcs[i], dst)
			}
			bat := rhhh.MustNew(cfg)
			for i := 0; i < n; {
				end := min(i+1+int(r.Uint64n(5000)), n)
				bat.UpdateBatch(srcs[i:end], subSlice(dsts, i, end))
				i = end
			}
			mustMatchMonitors(t, seq, bat)
		})
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
// seed, on every carrier and sampling mode (see batchDiffCases), including
// zero and heavy weights.
func TestMonitorUpdateWeightedBatchMatchesSequential(t *testing.T) {
	for _, cfg := range batchDiffCases(13) {
		t.Run(batchCaseName(cfg), func(t *testing.T) {
			const n = 60_000
			r := fastrand.New(14)
			srcs, dsts := batchStream(cfg, n, r)
			ws := make([]uint64, n)
			for i := range ws {
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
				var dst netip.Addr
				if dsts != nil {
					dst = dsts[i]
				}
				seq.UpdateWeighted(srcs[i], dst, ws[i])
			}
			bat := rhhh.MustNew(cfg)
			for i := 0; i < n; {
				end := min(i+1+int(r.Uint64n(5000)), n)
				bat.UpdateWeightedBatch(srcs[i:end], subSlice(dsts, i, end), ws[i:end])
				i = end
			}
			mustMatchMonitors(t, seq, bat)
		})
	}
}

// TestMonitorUpdateWeightedBatchValidation guards the batch surfaces' API
// contract: length mismatches panic, and so does an address of the wrong
// family anywhere in a batch, before any state changes. Under the skip
// sampler the batch path converts only the packets the sampler picks, and
// at V = 10·H a 256-packet batch leaves most positions unsampled; at V = H
// every packet is converted before sampling. The wrong-family address goes
// at every position, in srcs and in dsts, at both V, on Monitor, Worker and
// Windowed (mid-window, and 100 packets short of a boundary, where the
// batch is split), through both batch methods.
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

	for _, c := range []struct {
		v6    bool
		vMult int
	}{{false, 10}, {true, 10}, {false, 1}, {true, 1}} {
		v6 := c.v6
		cfg := rhhh.Config{Dims: 2, IPv6: v6, Epsilon: 0.1, Delta: 0.1, Seed: 21}
		cfg.V = c.vMult * rhhh.MustNew(cfg).H()
		wrong := netip.MustParseAddr("2001:db8::1")
		if v6 {
			wrong = netip.MustParseAddr("192.0.2.1")
		}
		r := fastrand.New(22)
		srcs, dsts := batchStream(cfg, 256, r)
		ws := make([]uint64, len(srcs))
		for i := range ws {
			ws[i] = 1 + r.Uint64n(9)
		}

		mon, ref := rhhh.MustNew(cfg), rhhh.MustNew(cfg)
		s, err := rhhh.NewSharded(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		wk := s.Worker(0)
		size := uint64(math.Ceil(mon.Psi()))
		win, err := rhhh.NewWindowed(cfg, size, 0.1, func(rhhh.WindowResult) {})
		if err != nil {
			t.Fatal(err)
		}
		// edge sits 100 packets short of its window boundary, so every
		// rejected batch would cross it: a wrong address past the boundary
		// must still stop the chunk before it from landing.
		edge, err := rhhh.NewWindowed(cfg, size, 0.1, func(rhhh.WindowResult) {})
		if err != nil {
			t.Fatal(err)
		}
		for edge.WindowN()+100+uint64(len(srcs)) <= size {
			edge.UpdateBatch(srcs, dsts)
		}
		if k := size - 100 - edge.WindowN(); k > 0 {
			edge.UpdateBatch(srcs[:k], dsts[:k])
		}
		// Start mid-stream: the sampler has a gap in flight.
		mon.UpdateBatch(srcs, dsts)
		ref.UpdateBatch(srcs, dsts)
		wk.UpdateBatch(srcs, dsts)
		win.UpdateBatch(srcs, dsts)

		surfaces := []struct {
			name   string
			n      func() uint64
			batch  func(srcs, dsts []netip.Addr)
			weight func(srcs, dsts []netip.Addr, ws []uint64)
		}{
			{"Monitor", mon.N, mon.UpdateBatch, mon.UpdateWeightedBatch},
			{"Worker", wk.N, wk.UpdateBatch, wk.UpdateWeightedBatch},
			{"Windowed", win.WindowN, win.UpdateBatch, win.UpdateWeightedBatch},
			{"Windowed at a boundary", edge.WindowN, edge.UpdateBatch, edge.UpdateWeightedBatch},
		}
		mustPanicKeepN := func(name string, n func() uint64, fn func()) {
			t.Helper()
			before := n()
			if mustPanic(name, fn); t.Failed() {
				t.FailNow() // one report, not one per position
			}
			if after := n(); after != before {
				t.Fatalf("%s changed N from %d to %d", name, before, after)
			}
		}
		for _, sf := range surfaces {
			for _, side := range []string{"src", "dst"} {
				for p := range srcs {
					bs, bd := slices.Clone(srcs), slices.Clone(dsts)
					if side == "src" {
						bs[p] = wrong
					} else {
						bd[p] = wrong
					}
					name := fmt.Sprintf("IPv6=%v V=%d %s %s at %d", v6, cfg.V, sf.name, side, p)
					mustPanicKeepN(name+" UpdateBatch", sf.n, func() { sf.batch(bs, bd) })
					mustPanicKeepN(name+" UpdateWeightedBatch", sf.n, func() { sf.weight(bs, bd, ws) })
				}
			}
		}
		// Nothing moved, the sampler's RNG and gap included: the monitor
		// still tracks a twin that never saw the rejected batches.
		mon.UpdateWeightedBatch(srcs, dsts, ws)
		ref.UpdateWeightedBatch(srcs, dsts, ws)
		mustMatchMonitors(t, ref, mon)
	}
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
