package chk

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rhhh/internal/exact"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// TestExactBelowContention: while the distinct key set fits in the table,
// every count is exact, nothing decays, and the unmonitored bound is 0.
func TestExactBelowContention(t *testing.T) {
	s := New[uint64](64, 1)
	r := fastrand.New(7)
	want := make(map[uint64]uint64)
	for i := 0; i < 5000; i++ {
		k := r.Uint64n(40)
		s.Increment(k)
		want[k]++
	}
	if s.N() != 5000 {
		t.Fatalf("N = %d, want 5000", s.N())
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if s.MinCount() != 0 {
		t.Fatalf("MinCount = %d, want 0 before any displacement", s.MinCount())
	}
	for k, f := range want {
		up, lo := s.Bounds(k)
		if up != f || lo != f {
			t.Fatalf("Bounds(%d) = (%d, %d), want exact %d", k, up, lo, f)
		}
	}
	if up, lo := s.Bounds(999); up != 0 || lo != 0 {
		t.Fatalf("unmonitored Bounds = (%d, %d), want (0, 0)", up, lo)
	}
}

// TestUnderestimateInvariant: a monitored key's count never exceeds its true
// frequency — every unit on a slot came from an update of the key owning it,
// and decay only subtracts. This is the structural invariant that makes
// reports at θ precision-1: est ≥ θN implies f ≥ θN.
func TestUnderestimateInvariant(t *testing.T) {
	s := New[uint64](128, 3)
	r := fastrand.New(11)
	truth := make(map[uint64]uint64)
	for i := 0; i < 200_000; i++ {
		// Heavy-tailed-ish: small keys frequent, long uniform tail.
		var k uint64
		if r.Uint64n(4) == 0 {
			k = r.Uint64n(32)
		} else {
			k = 1000 + r.Uint64n(1<<16)
		}
		w := 1 + r.Uint64n(3)
		s.IncrementBy(k, w)
		truth[k] += w
	}
	viol := 0
	s.ForEach(func(k uint64, count uint64) {
		if count > truth[k] {
			viol++
			t.Errorf("key %d: estimate %d exceeds true frequency %d", k, count, truth[k])
		}
	})
	if viol > 0 {
		t.Fatalf("%d over-estimates — CHK counts must under-estimate", viol)
	}
	if !s.displace {
		t.Fatal("stream was built to overflow the table but nothing decayed")
	}
	if s.MinCount() == 0 {
		t.Fatal("MinCount = 0 after displacement")
	}
}

// TestHeavyRecallAndEnvelope measures CHK against the internal/exact oracle:
// every key with true frequency ≥ θN must be monitored (recall 1 at θ), its
// estimate must sit within an ε·N envelope below the true frequency, and —
// by the under-estimate invariant — everything reported at θ is a true
// positive (precision 1).
func TestHeavyRecallAndEnvelope(t *testing.T) {
	const (
		theta   = 0.01
		epsilon = 0.005 // empirical envelope; measured slack is logged
		nHeavy  = 24
		total   = 200_000
	)
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	oracle := exact.New(dom)
	s := New[uint32](1024, 5)
	r := fastrand.New(17)
	heavies := make([]uint32, nHeavy)
	for i := range heavies {
		heavies[i] = uint32(0x0a000000 + i) // 10.0.0.x
	}
	for i := 0; i < total; i++ {
		var k uint32
		if r.Uint64n(10) < 6 { // 60% of the stream on the planted heavies
			k = heavies[r.Uint64n(nHeavy)]
		} else {
			k = uint32(r.Uint64n(1 << 24)) // background tail
		}
		s.Increment(k)
		oracle.Add(k)
	}
	truth := oracle.Frequencies(dom.FullNode())
	n := float64(s.N())
	thresh := uint64(theta * n)
	envelope := uint64(epsilon * n)

	var maxErr uint64
	missed := 0
	for k, f := range truth {
		if f < thresh {
			continue
		}
		up, lo := s.Bounds(k)
		if lo == 0 {
			missed++
			t.Errorf("heavy key %08x (f=%d ≥ %d) not monitored", k, f, thresh)
			continue
		}
		if up > f {
			t.Errorf("key %08x: estimate %d exceeds true %d", k, up, f)
		}
		if err := f - up; err > envelope {
			t.Errorf("key %08x: error %d exceeds ε·N = %d (f=%d, est=%d)",
				k, err, envelope, f, up)
		} else if err > maxErr {
			maxErr = err
		}
	}
	if missed > 0 {
		t.Fatalf("recall at θ=%g: missed %d heavy keys", theta, missed)
	}
	// Precision at θ: every key the sketch reports above the threshold must
	// be a true heavy. Under-estimation makes this structural; verify anyway.
	s.ForEach(func(k uint32, count uint64) {
		if count >= thresh && truth[k] < thresh {
			t.Errorf("false positive at θ: key %08x est %d but true %d",
				k, count, truth[k])
		}
	})
	t.Logf("recall 1.0 at θ=%g over %d heavies; max error %d = %.4f·N (envelope ε·N = %d)",
		theta, nHeavy, maxErr, float64(maxErr)/n, envelope)
}

// TestWeightedMatchesUnitSemantics: the geometric skip-ahead in the weighted
// miss path must preserve the heavy-key recall of the unit path — a heavy
// key arriving in bursts of weight w is found just like w single packets.
func TestWeightedMatchesUnitSemantics(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	oracle := exact.New(dom)
	s := New[uint32](256, 9)
	r := fastrand.New(23)
	for i := 0; i < 60_000; i++ {
		var k uint32
		var w uint64
		if r.Uint64n(10) < 4 {
			k = uint32(r.Uint64n(8)) // 8 planted heavies
			w = 1 + r.Uint64n(64)    // bursty weights
		} else {
			k = 0x100 + uint32(r.Uint64n(1<<20))
			w = 1 + r.Uint64n(8)
		}
		s.IncrementBy(k, w)
		oracle.AddWeighted(k, w)
	}
	truth := oracle.Frequencies(dom.FullNode())
	thresh := uint64(0.02 * float64(s.N()))
	for k, f := range truth {
		if f < thresh {
			continue
		}
		up, lo := s.Bounds(k)
		if lo == 0 {
			t.Errorf("weighted heavy %08x (f=%d) not monitored", k, f)
		} else if up > f {
			t.Errorf("weighted key %08x over-estimated: %d > %d", k, up, f)
		}
	}
	if s.N() != oracle.N() {
		t.Fatalf("N = %d, oracle N = %d", s.N(), oracle.N())
	}
}

// TestDeterminism: equal seeds and equal update sequences give bit-identical
// state for integer key types; a different seed diverges.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) *Sketch[uint64] {
		s := New[uint64](64, seed)
		r := fastrand.New(31)
		for i := 0; i < 50_000; i++ {
			s.IncrementBy(r.Uint64n(5000), 1+r.Uint64n(4))
		}
		return s
	}
	a, b := run(42), run(42)
	encA := a.Snapshot().AppendBinary(nil, putU64)
	encB := b.Snapshot().AppendBinary(nil, putU64)
	if string(encA) != string(encB) {
		t.Fatal("same seed, same stream: snapshots differ")
	}
	c := run(43)
	if encC := c.Snapshot().AppendBinary(nil, putU64); string(encA) == string(encC) {
		t.Fatal("different seeds produced identical snapshots (suspicious)")
	}
}

// TestDeterminismIPv6: the IPv6 carriers hash from the sketch's seed as
// well, so two sketches with equal seeds fed the same keys marshal
// identical snapshots.
func TestDeterminismIPv6(t *testing.T) {
	putAddr := func(b []byte, k hierarchy.Addr) []byte {
		return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, k.Hi), k.Lo)
	}
	addr := func(r *fastrand.Source) hierarchy.Addr {
		return hierarchy.Addr{Hi: 0x20010db8<<32 | r.Uint64n(2500), Lo: r.Uint64n(4)}
	}
	t.Run("Addr", func(t *testing.T) {
		sameSnapshots(t, addr, putAddr)
	})
	t.Run("AddrPair", func(t *testing.T) {
		sameSnapshots(t, func(r *fastrand.Source) hierarchy.AddrPair {
			return hierarchy.AddrPair{Src: addr(r), Dst: addr(r)}
		}, func(b []byte, k hierarchy.AddrPair) []byte {
			return putAddr(putAddr(b, k.Src), k.Dst)
		})
	})
}

// sameSnapshots feeds two sketches seeded alike the same contended stream
// and fails unless they marshal identically.
func sameSnapshots[K comparable](t *testing.T, key func(*fastrand.Source) K, put func([]byte, K) []byte) {
	var enc [2][]byte
	for i := range enc {
		s := New[K](64, 42)
		r := fastrand.New(31)
		for range 50_000 {
			s.IncrementBy(key(r), 1+r.Uint64n(4))
		}
		if s.Decays() == 0 {
			t.Fatal("no decay competition: the stream does not exercise placement")
		}
		enc[i] = s.Snapshot().AppendBinary(nil, put)
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Fatal("same seed, same stream: snapshots differ")
	}
}

// TestResetReseedReproduces: Reset + Reseed replays a fresh sketch bit for
// bit, mirroring the engine's Reset/Reseed contract — with the construction
// seed, and with another seed, which the key hash must follow too.
func TestResetReseedReproduces(t *testing.T) {
	const seed = 77
	feed := func(s *Sketch[uint64]) {
		r := fastrand.New(13)
		for i := 0; i < 30_000; i++ {
			s.Increment(r.Uint64n(3000))
		}
	}
	s := New[uint64](32, seed)
	feed(s)
	first := s.Snapshot().AppendBinary(nil, putU64)
	s.Reset()
	s.Reseed(seed)
	feed(s)
	second := s.Snapshot().AppendBinary(nil, putU64)
	if string(first) != string(second) {
		t.Fatal("Reset+Reseed did not reproduce the first run")
	}
	s.Reset()
	s.Reseed(seed + 1)
	feed(s)
	fresh := New[uint64](32, seed+1)
	feed(fresh)
	if string(s.Snapshot().AppendBinary(nil, putU64)) != string(fresh.Snapshot().AppendBinary(nil, putU64)) {
		t.Fatal("Reset+Reseed to another seed did not reproduce a sketch built with it")
	}
}

// TestForEachOrder: descending count, ascending slot id on ties — the same
// deterministic order the Stream-Summary's ForEach guarantees.
func TestForEachOrder(t *testing.T) {
	s := New[uint64](64, 2)
	r := fastrand.New(19)
	for i := 0; i < 20_000; i++ {
		s.Increment(r.Uint64n(200))
	}
	var counts []uint64
	seen := make(map[uint64]bool)
	s.ForEach(func(k uint64, count uint64) {
		if seen[k] {
			t.Fatalf("key %d visited twice", k)
		}
		seen[k] = true
		if up, _ := s.Bounds(k); up != count {
			t.Fatalf("ForEach count %d disagrees with Bounds %d for key %d", count, up, k)
		}
		counts = append(counts, count)
	})
	if len(counts) != s.Len() {
		t.Fatalf("visited %d keys, Len = %d", len(counts), s.Len())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("counts not descending at %d: %d after %d", i, counts[i], counts[i-1])
		}
	}
}

// TestZeroWeight: a zero-weight update touches nothing, including the RNG.
func TestZeroWeight(t *testing.T) {
	s := New[uint64](8, 4)
	for i := uint64(0); i < 100; i++ {
		s.IncrementBy(i, 2) // overflow the table so decay state matters
	}
	before := s.Snapshot().AppendBinary(nil, putU64)
	s.IncrementBy(12345, 0)
	after := s.Snapshot().AppendBinary(nil, putU64)
	if string(before) != string(after) {
		t.Fatal("zero-weight update changed the sketch")
	}
	if s.N() != 200 {
		t.Fatalf("N = %d, want 200", s.N())
	}
}

// TestCapacityRounding: capacity rounds up to the 4-way power-of-two
// geometry, never below the request, minimum two buckets.
func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{1, 8}, {8, 8}, {9, 16}, {16, 16}, {17, 32}, {100, 128}, {1024, 1024},
	} {
		if got := New[uint64](tc.req, 0).Capacity(); got != tc.want {
			t.Errorf("New(%d).Capacity() = %d, want %d", tc.req, got, tc.want)
		}
	}
}
