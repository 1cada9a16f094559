package rhhh_test

import (
	"math/rand"
	"net/netip"
	"testing"

	"rhhh"
)

func TestWindowedDeliversPerWindowResults(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, Seed: 1}
	window := uint64(rhhh.Psi(0.05, 0.05, 5)) + 20000

	var results []rhhh.WindowResult
	w, err := rhhh.NewWindowed(cfg, window, 0.3, func(r rhhh.WindowResult) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2))
	heavyA := addr4(1, 1, 1, 0) // window 0's aggregate
	heavyB := addr4(2, 2, 2, 0) // window 1's aggregate
	feed := func(prefix netip.Addr, n uint64) {
		b := prefix.As4()
		for i := uint64(0); i < n; i++ {
			if rng.Intn(2) == 0 {
				b[3] = byte(rng.Intn(256))
				w.Update(netip.AddrFrom4(b), netip.Addr{})
			} else {
				w.Update(addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))), netip.Addr{})
			}
		}
	}
	feed(heavyA, window)
	feed(heavyB, window)

	if len(results) != 2 {
		t.Fatalf("%d windows delivered, want 2", len(results))
	}
	if w.Completed() != 2 {
		t.Fatalf("Completed = %d", w.Completed())
	}
	contains := func(r rhhh.WindowResult, p netip.Prefix) bool {
		for _, h := range r.HeavyHitters {
			if h.Src == p {
				return true
			}
		}
		return false
	}
	if !contains(results[0], netip.PrefixFrom(heavyA, 24)) {
		t.Errorf("window 0 missed 1.1.1.*: %v", results[0].HeavyHitters)
	}
	if contains(results[0], netip.PrefixFrom(heavyB, 24)) {
		t.Error("window 0 leaked window 1's aggregate")
	}
	if !contains(results[1], netip.PrefixFrom(heavyB, 24)) {
		t.Errorf("window 1 missed 2.2.2.*: %v", results[1].HeavyHitters)
	}
	if contains(results[1], netip.PrefixFrom(heavyA, 24)) {
		t.Error("window 1 leaked window 0's aggregate (state not reset)")
	}
	for i, r := range results {
		if r.Index != uint64(i) || r.N != window {
			t.Errorf("window %d metadata: %+v", i, r)
		}
	}
}

func TestWindowedFlushPartial(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1}
	fired := 0
	w, err := rhhh.NewWindowed(cfg, uint64(rhhh.Psi(0.1, 0.1, 5))+1, 0.5, func(r rhhh.WindowResult) {
		fired++
		if r.N != 10 {
			t.Errorf("partial window delivered N=%d, want the 10 fed packets", r.N)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Update(addr4(9, 9, 9, 9), netip.Addr{})
	}
	w.Flush()
	if fired != 1 {
		t.Fatalf("Flush fired %d callbacks", fired)
	}
	w.Flush() // nothing pending: no callback
	if fired != 1 {
		t.Fatal("empty flush fired a callback")
	}
}

func TestWindowedRejectsWindowBelowPsi(t *testing.T) {
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.001, Delta: 0.001}
	_, err := rhhh.NewWindowed(cfg, 1000, 0.1, func(rhhh.WindowResult) {})
	if err == nil {
		t.Fatal("window far below ψ accepted")
	}
}

// TestWindowedReuseMatchesFreshMonitors: each delivered window must be
// bit-identical to a freshly built monitor seeded Seed + i·φ64 fed the same
// sub-stream — the Reset+Reseed reuse cannot change results.
func TestWindowedReuseMatchesFreshMonitors(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, V: 50, Seed: 11}
	window := uint64(rhhh.Psi(0.05, 0.05, 50)) + 1000

	var results []rhhh.WindowResult
	w, err := rhhh.NewWindowed(cfg, window, 0.3, func(r rhhh.WindowResult) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	const windows = 3
	streams := make([][]netip.Addr, windows)
	for wi := 0; wi < windows; wi++ {
		for i := uint64(0); i < window; i++ {
			var a netip.Addr
			if rng.Intn(2) == 0 {
				a = addr4(5, 5, byte(wi), byte(rng.Intn(256)))
			} else {
				a = addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			streams[wi] = append(streams[wi], a)
			w.Update(a, netip.Addr{})
		}
	}
	if len(results) != windows {
		t.Fatalf("%d windows delivered, want %d", len(results), windows)
	}
	for wi := 0; wi < windows; wi++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(wi)*0x9e3779b97f4a7c15
		fresh := rhhh.MustNew(c)
		for _, a := range streams[wi] {
			fresh.Update(a, netip.Addr{})
		}
		want := fresh.HeavyHitters(0.3)
		got := results[wi].HeavyHitters
		if len(got) != len(want) {
			t.Fatalf("window %d: %d vs %d results", wi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %d result %d differs:\n  %+v\n  %+v", wi, i, got[i], want[i])
			}
		}
	}
}

// TestWindowedUpdateBatchMatchesPerPacket: feeding batches that straddle
// window boundaries must deliver exactly the same windows as per-packet
// feeding.
func TestWindowedUpdateBatchMatchesPerPacket(t *testing.T) {
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, V: 50, Seed: 21}
	window := uint64(rhhh.Psi(0.05, 0.05, 50)) + 777 // deliberately not a batch multiple

	var perPacket, batched []rhhh.WindowResult
	wa, err := rhhh.NewWindowed(cfg, window, 0.25, func(r rhhh.WindowResult) { perPacket = append(perPacket, r) })
	if err != nil {
		t.Fatal(err)
	}
	wb, err := rhhh.NewWindowed(cfg, window, 0.25, func(r rhhh.WindowResult) { batched = append(batched, r) })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	total := int(3*window) + 123
	srcs := make([]netip.Addr, total)
	dsts := make([]netip.Addr, total)
	for i := range srcs {
		srcs[i] = addr4(3, 3, byte(rng.Intn(8)), byte(rng.Intn(256)))
		dsts[i] = addr4(byte(rng.Intn(8)), 4, 4, byte(rng.Intn(256)))
	}
	for i := range srcs {
		wa.Update(srcs[i], dsts[i])
	}
	// Uneven batch sizes to hit boundaries mid-batch.
	for off := 0; off < total; {
		n := 300 + rng.Intn(700)
		if off+n > total {
			n = total - off
		}
		wb.UpdateBatch(srcs[off:off+n], dsts[off:off+n])
		off += n
	}
	if len(perPacket) != len(batched) {
		t.Fatalf("%d vs %d windows delivered", len(perPacket), len(batched))
	}
	for wi := range perPacket {
		a, b := perPacket[wi], batched[wi]
		if a.Index != b.Index || a.N != b.N || a.SubWindows != b.SubWindows || len(a.HeavyHitters) != len(b.HeavyHitters) {
			t.Fatalf("window %d metadata differs: %+v vs %+v", wi, a, b)
		}
		for i := range a.HeavyHitters {
			if a.HeavyHitters[i] != b.HeavyHitters[i] {
				t.Fatalf("window %d result %d differs", wi, i)
			}
		}
	}
}

// TestWindowedUpdateWeighted: window boundaries are measured in stream
// weight, so weighted packets close windows early.
func TestWindowedUpdateWeighted(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1}
	window := uint64(rhhh.Psi(0.1, 0.1, 5)) + 1
	var results []rhhh.WindowResult
	w, err := rhhh.NewWindowed(cfg, window, 0.5, func(r rhhh.WindowResult) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w.UpdateWeighted(addr4(1, 2, 3, 4), netip.Addr{}, window*3/10)
	}
	if len(results) != 1 {
		t.Fatalf("%d windows after 4 packets of 30%% of the window's weight each, want 1", len(results))
	}
	if results[0].N < window {
		t.Fatalf("window closed at N=%d, below the %d boundary", results[0].N, window)
	}
}

// TestSlidingWindowMatchesMergedSubStreams: a delivered sliding result over
// k sub-windows must equal merging standalone per-sub-window measurements
// (with the window seeds) and querying the union — the acceptance criterion
// of the snapshot layer.
func TestSlidingWindowMatchesMergedSubStreams(t *testing.T) {
	const k = 3
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, V: 50, Seed: 31}
	window := uint64(rhhh.Psi(0.05, 0.05, 50))/k + 5000

	var results []rhhh.WindowResult
	w, err := rhhh.NewSlidingWindowed(cfg, window, k, 0.2, func(r rhhh.WindowResult) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	streams := make([][]netip.Addr, k)
	for wi := 0; wi < k; wi++ {
		for i := uint64(0); i < window; i++ {
			var a netip.Addr
			if rng.Intn(3) == 0 {
				a = addr4(8, 8, byte(wi), byte(rng.Intn(256)))
			} else {
				a = addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			streams[wi] = append(streams[wi], a)
			w.Update(a, netip.Addr{})
		}
	}
	w.Sync() // sliding results are delivered by the background merger
	if len(results) != k {
		t.Fatalf("%d sub-windows delivered, want %d", len(results), k)
	}
	// Rebuild each sub-window standalone with the window's seed.
	snaps := make([]*rhhh.Snapshot, k)
	for wi := 0; wi < k; wi++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(wi)*0x9e3779b97f4a7c15
		m := rhhh.MustNew(c)
		for _, a := range streams[wi] {
			m.Update(a, netip.Addr{})
		}
		snaps[wi] = m.Snapshot()
	}
	merged, err := snaps[0].Merge(snaps[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	final := results[k-1]
	if final.SubWindows != k || final.N != merged.N() || final.N != k*window {
		t.Fatalf("final window metadata: %+v (merged N=%d)", final, merged.N())
	}
	want := merged.HeavyHitters(0.2)
	if len(final.HeavyHitters) != len(want) {
		t.Fatalf("%d vs %d results", len(final.HeavyHitters), len(want))
	}
	for i := range want {
		if final.HeavyHitters[i] != want[i] {
			t.Fatalf("result %d differs:\n  %+v\n  %+v", i, final.HeavyHitters[i], want[i])
		}
	}
	// Early results cover fewer sub-windows with proportional N.
	if results[0].SubWindows != 1 || results[0].N != window {
		t.Fatalf("first sub-window metadata: %+v", results[0])
	}
	if results[1].SubWindows != 2 || results[1].N != 2*window {
		t.Fatalf("second sub-window metadata: %+v", results[1])
	}
}

// TestSlidingWindowEvictsOldSubWindows: an aggregate heavy only in an old
// sub-window must leave the reported set once the window slides past it.
func TestSlidingWindowEvictsOldSubWindows(t *testing.T) {
	const k = 2
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, Seed: 41}
	window := uint64(rhhh.Psi(0.05, 0.05, 5))/k + 10000

	var results []rhhh.WindowResult
	w, err := rhhh.NewSlidingWindowed(cfg, window, k, 0.3, func(r rhhh.WindowResult) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	feed := func(heavy bool) {
		for i := uint64(0); i < window; i++ {
			if heavy && rng.Intn(2) == 0 {
				w.Update(addr4(6, 6, 6, byte(rng.Intn(256))), netip.Addr{})
			} else {
				w.Update(addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))), netip.Addr{})
			}
		}
	}
	feed(true)  // sub-window 0: heavy
	feed(false) // sub-window 1: uniform
	feed(false) // sub-window 2: uniform — slides past sub-window 0
	w.Sync()    // sliding results are delivered by the background merger
	if len(results) != 3 {
		t.Fatalf("%d sub-windows delivered", len(results))
	}
	has := func(r rhhh.WindowResult) bool {
		for _, h := range r.HeavyHitters {
			if h.Src == netip.PrefixFrom(addr4(6, 6, 6, 0), 24) {
				return true
			}
		}
		return false
	}
	if !has(results[0]) {
		t.Error("sliding window missed the heavy aggregate while it was live")
	}
	if !has(results[1]) {
		t.Error("aggregate should persist while sub-window 0 is still covered")
	}
	if has(results[2]) {
		t.Error("aggregate not evicted after the window slid past its sub-window")
	}
	// On-demand query mid-window covers the last k−1 completed plus current.
	w.Update(addr4(1, 1, 1, 1), netip.Addr{})
	if hh := w.HeavyHitters(0.3); hh == nil && w.Completed() != 3 {
		t.Error("on-demand sliding query failed")
	}
}

func TestSlidingWindowValidation(t *testing.T) {
	ok := func(rhhh.WindowResult) {}
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05}
	if _, err := rhhh.NewSlidingWindowed(cfg, 100000, 0, 0.5, ok); err == nil {
		t.Error("k=0 accepted")
	}
	// ψ is checked against the covered window k·size.
	tight := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05}
	size := uint64(rhhh.Psi(0.05, 0.05, 5))/2 + 1
	if _, err := rhhh.NewSlidingWindowed(tight, size, 2, 0.5, ok); err != nil {
		t.Errorf("covered window above ψ rejected: %v", err)
	}
	if _, err := rhhh.NewWindowed(tight, size, 0.5, ok); err == nil {
		t.Error("tumbling window below ψ accepted")
	}
}

// TestSlidingWindowBackgroundMergeProducer runs a producer through many
// sub-window boundaries with the ring read on the background goroutine,
// interleaving on-demand queries and a watch subscription — the -race
// exercise for the flush/delivery overlap. Results must still arrive in
// order and bit-identical to standalone per-sub-window monitors merged with
// Snapshot.Merge (windowRef).
func TestSlidingWindowBackgroundMergeProducer(t *testing.T) {
	const k = 3
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, V: 50, Seed: 61}
	window := uint64(rhhh.Psi(0.05, 0.05, 50))/k + 3000

	var got []rhhh.WindowResult
	w, err := rhhh.NewSlidingWindowed(cfg, window, k, 0.2, func(r rhhh.WindowResult) {
		got = append(got, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Watch(rhhh.WatchOptions{Theta: 0.2, OnDelta: func(rhhh.Delta) {}}); err != nil {
		t.Fatal(err)
	}

	ref := newWindowRef(cfg, window, k)

	rng := rand.New(rand.NewSource(62))
	const windows = 7
	batch := make([]netip.Addr, 512)
	total := int(window) * windows
	for fed := 0; fed < total; {
		n := len(batch)
		if total-fed < n {
			n = total - fed
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				batch[i] = addr4(7, 7, 7, byte(rng.Intn(256)))
			} else {
				batch[i] = addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
		}
		w.UpdateBatch(batch[:n], nil)
		for _, a := range batch[:n] {
			ref.update(a, netip.Addr{}, 1)
		}
		if rng.Intn(4) == 0 {
			_ = w.HeavyHitters(0.2) // on-demand query racing the merger
		}
		fed += n
	}
	w.Sync()
	var want []rhhh.WindowResult
	for i := range ref.done {
		want = append(want, ref.result(t, i, 0.2, rhhh.MustNew(cfg).Psi()))
	}
	if len(got) != windows || len(want) != windows {
		t.Fatalf("%d async vs %d reference windows (want %d)", len(got), len(want), windows)
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Index != b.Index || a.N != b.N || a.SubWindows != b.SubWindows || len(a.HeavyHitters) != len(b.HeavyHitters) {
			t.Fatalf("window %d metadata differs: %+v vs %+v", i, a, b)
		}
		for j := range a.HeavyHitters {
			if a.HeavyHitters[j] != b.HeavyHitters[j] {
				t.Fatalf("window %d result %d differs", i, j)
			}
		}
	}
}

// TestWindowedUpdateWeightedBatchMatchesPerPacket: weighted batches that
// straddle weight-measured window boundaries must deliver exactly the same
// windows as per-packet weighted feeding — a heavy packet closes the window
// at the same position.
func TestWindowedUpdateWeightedBatchMatchesPerPacket(t *testing.T) {
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, V: 50, Seed: 71}
	window := uint64(rhhh.Psi(0.05, 0.05, 50)) + 1234

	var perPacket, batched []rhhh.WindowResult
	wa, err := rhhh.NewWindowed(cfg, window, 0.25, func(r rhhh.WindowResult) { perPacket = append(perPacket, r) })
	if err != nil {
		t.Fatal(err)
	}
	wb, err := rhhh.NewWindowed(cfg, window, 0.25, func(r rhhh.WindowResult) { batched = append(batched, r) })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	total := int(window/2) + 321 // weights average ~8, so several windows
	srcs := make([]netip.Addr, total)
	dsts := make([]netip.Addr, total)
	ws := make([]uint64, total)
	for i := range srcs {
		srcs[i] = addr4(3, 3, byte(rng.Intn(8)), byte(rng.Intn(256)))
		dsts[i] = addr4(byte(rng.Intn(8)), 4, 4, byte(rng.Intn(256)))
		// Mix of zero, unit and heavy weights, including window-sized ones.
		switch rng.Intn(10) {
		case 0:
			ws[i] = 0
		case 1:
			ws[i] = window/2 + uint64(rng.Intn(100))
		default:
			ws[i] = uint64(1 + rng.Intn(20))
		}
	}
	for i := range srcs {
		wa.UpdateWeighted(srcs[i], dsts[i], ws[i])
	}
	for off := 0; off < total; {
		n := 100 + rng.Intn(400)
		if off+n > total {
			n = total - off
		}
		wb.UpdateWeightedBatch(srcs[off:off+n], dsts[off:off+n], ws[off:off+n])
		off += n
	}
	if len(perPacket) != len(batched) || len(perPacket) == 0 {
		t.Fatalf("%d vs %d windows delivered", len(perPacket), len(batched))
	}
	for wi := range perPacket {
		a, b := perPacket[wi], batched[wi]
		if a.Index != b.Index || a.N != b.N || len(a.HeavyHitters) != len(b.HeavyHitters) {
			t.Fatalf("window %d metadata differs: %+v vs %+v", wi, a, b)
		}
		for i := range a.HeavyHitters {
			if a.HeavyHitters[i] != b.HeavyHitters[i] {
				t.Fatalf("window %d result %d differs", wi, i)
			}
		}
	}
}

func TestWindowedValidation(t *testing.T) {
	ok := func(rhhh.WindowResult) {}
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1}
	if _, err := rhhh.NewWindowed(cfg, 0, 0.5, ok); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := rhhh.NewWindowed(cfg, 10, 0, ok); err == nil {
		t.Error("zero theta accepted")
	}
	if _, err := rhhh.NewWindowed(cfg, 10, 0.5, nil); err == nil {
		t.Error("nil callback accepted")
	}
	if _, err := rhhh.NewWindowed(rhhh.Config{}, 10, 0.5, ok); err == nil {
		t.Error("invalid inner config accepted")
	}
}

// TestWindowResultConverged: a result carries the guarantee only once the
// weight it covers reaches ψ (Monitor.Converged's rule). With
// size < ψ ≤ k·size, a sliding window's results before the ring covers ψ
// report false and later ones true; a partial Flush below ψ reports false,
// on both modes.
func TestWindowResultConverged(t *testing.T) {
	const k = 3
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, Seed: 81}
	psi := rhhh.MustNew(cfg).Psi()
	size := uint64(psi)/k + 100
	if float64(size) >= psi || float64(k*size) < psi || float64(2*size) >= psi {
		t.Fatalf("size %d does not put ψ = %.0f between 2·size and k·size", size, psi)
	}
	var results []rhhh.WindowResult
	w, err := rhhh.NewSlidingWindowed(cfg, size, k, 0.2, func(r rhhh.WindowResult) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(82))
	feed := func(n uint64) {
		for range n {
			w.Update(addr4(9, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))), netip.Addr{})
		}
	}
	feed(5 * size)
	feed(10) // a partial sub-window after two full ones: 2·size + 10 < ψ
	w.Flush()
	want := []bool{false, false, true, true, true, false}
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Converged != want[i] || r.Converged != (float64(r.N) >= psi) {
			t.Errorf("result %d covering N = %d (ψ = %.0f): Converged = %v", i, r.N, psi, r.Converged)
		}
	}
	// The flushed partial result covers the last two full sub-windows plus
	// the partial one, and falls short of ψ.
	if last := results[len(results)-1]; last.SubWindows != k || last.N != 2*size+10 || last.Converged {
		t.Errorf("partial sliding flush: %+v", last)
	}
	results = results[:0]

	tw, err := rhhh.NewWindowed(cfg, uint64(psi)+1, 0.2, func(r rhhh.WindowResult) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	for range uint64(psi) + 11 {
		tw.Update(addr4(9, 9, 9, byte(rng.Intn(256))), netip.Addr{})
	}
	tw.Flush()
	if len(results) != 2 || !results[0].Converged || results[1].N != 10 || results[1].Converged {
		t.Errorf("tumbling: full window then a 10-packet partial flush, got %+v", results)
	}
}
