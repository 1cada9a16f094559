package rhhh_test

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"rhhh"
)

func snapEqualHH(t *testing.T, label string, a, b []rhhh.HeavyHitter) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result %d differs:\n  %+v\n  %+v", label, i, a[i], b[i])
		}
	}
}

// TestSnapshotHeavyHittersMatchesMonitor: the snapshot query must be
// bit-identical to the live monitor's, across carriers and sampling modes.
func TestSnapshotHeavyHittersMatchesMonitor(t *testing.T) {
	cases := []struct {
		name string
		cfg  rhhh.Config
	}{
		{"1D-IPv4", rhhh.Config{Dims: 1, Epsilon: 0.02, Delta: 0.05, Seed: 1}},
		{"2D-IPv4", rhhh.Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 2}},
		{"2D-IPv4-10RHHH", rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, V: 250, Seed: 3}},
		{"1D-IPv6", rhhh.Config{Dims: 1, IPv6: true, Epsilon: 0.05, Delta: 0.05, Seed: 4}},
		{"2D-IPv6", rhhh.Config{Dims: 2, IPv6: true, Epsilon: 0.05, Delta: 0.05, Seed: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := rhhh.MustNew(tc.cfg)
			rng := rand.New(rand.NewSource(7))
			mk := func() netip.Addr {
				if tc.cfg.IPv6 {
					var b [16]byte
					b[0] = 0x20
					b[1] = byte(rng.Intn(4))
					b[15] = byte(rng.Intn(256))
					return netip.AddrFrom16(b)
				}
				return addr4(byte(rng.Intn(4)), byte(rng.Intn(8)), 1, byte(rng.Intn(256)))
			}
			for i := 0; i < 200000; i++ {
				var dst netip.Addr
				if tc.cfg.Dims == 2 {
					dst = mk()
				}
				m.Update(mk(), dst)
			}
			for _, theta := range []float64{0.02, 0.1, 0.5} {
				snapEqualHH(t, tc.name, m.HeavyHitters(theta), m.Snapshot().HeavyHitters(theta))
			}
			if m.Snapshot().N() != m.N() {
				t.Fatal("snapshot N differs from monitor N")
			}
		})
	}
}

// TestSnapshotIsolatedFromMonitor: updating the monitor after capture must
// not change the snapshot's answer.
func TestSnapshotIsolatedFromMonitor(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, Seed: 9})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 50000; i++ {
		m.Update(addr4(1, 1, byte(rng.Intn(4)), byte(rng.Intn(256))), netip.Addr{})
	}
	snap := m.Snapshot()
	// Copy: HeavyHitters returns the snapshot's reusable query buffer.
	before := slices.Clone(snap.HeavyHitters(0.2))
	for i := 0; i < 50000; i++ {
		m.Update(addr4(9, 9, 9, byte(rng.Intn(256))), netip.Addr{})
	}
	snapEqualHH(t, "frozen snapshot", before, snap.HeavyHitters(0.2))
}

// TestSnapshotIntoReuseAcrossConfigs: reusing a destination snapshot from a
// differently-configured monitor (same carrier type, different lattice)
// must fully repoint it, not leave a stale hierarchy behind.
func TestSnapshotIntoReuseAcrossConfigs(t *testing.T) {
	mByte := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1, Seed: 1})
	mNibble := rhhh.MustNew(rhhh.Config{Dims: 1, Granularity: rhhh.Nibble, Epsilon: 0.1, Delta: 0.1, Seed: 2})
	for i := 0; i < 2000; i++ {
		mByte.Update(addr4(1, 2, 3, byte(i)), netip.Addr{})
		mNibble.Update(addr4(4, 5, 6, byte(i)), netip.Addr{})
	}
	snap := mByte.Snapshot()
	mNibble.SnapshotInto(snap)
	snapEqualHH(t, "reused across configs", mNibble.HeavyHitters(0.5), snap.HeavyHitters(0.5))
}

// TestSnapshotMarshalRoundTrip: a marshalled snapshot must unmarshal into
// an equivalent, re-marshal bit-identically, and reject corrupt input.
func TestSnapshotMarshalRoundTrip(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, V: 250, Seed: 6})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300000; i++ {
		m.Update(
			addr4(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))),
			addr4(20, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))),
		)
	}
	snap := m.Snapshot()
	enc, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dec rhhh.Snapshot
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	snapEqualHH(t, "roundtrip", snap.HeavyHitters(0.05), dec.HeavyHitters(0.05))
	if dec.N() != snap.N() || dec.Packets() != snap.Packets() {
		t.Fatalf("decoded N/Packets %d/%d, want %d/%d", dec.N(), dec.Packets(), snap.N(), snap.Packets())
	}
	re, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatal("re-marshal is not bit-identical")
	}
	// A decoded snapshot is still mergeable with a live one.
	if _, err := snap.Merge(&dec); err != nil {
		t.Fatalf("merge with decoded snapshot: %v", err)
	}

	// Corruption is rejected.
	var s rhhh.Snapshot
	for _, cut := range []int{0, 3, 6, len(enc) / 2, len(enc) - 1} {
		if err := s.UnmarshalBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for _, mut := range []struct {
		name string
		at   int
		val  byte
	}{
		{"magic", 0, 'X'},
		{"version", 3, 99},
		{"dims", 4, 7},
		{"granularity", 5, 9},
		{"flags", 6, 0x80},
	} {
		bad := append([]byte{}, enc...)
		bad[mut.at] = mut.val
		if err := s.UnmarshalBinary(bad); err == nil {
			t.Fatalf("corrupt %s accepted", mut.name)
		}
	}
	if err := s.UnmarshalBinary(append(append([]byte{}, enc...), 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestSnapshotMergeCombinesSubStreams: merging snapshots of two monitors
// fed disjoint halves behaves like one measurement over the union.
func TestSnapshotMergeCombinesSubStreams(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.02, Delta: 0.05}
	a := rhhh.MustNew(func() rhhh.Config { c := cfg; c.Seed = 1; return c }())
	b := rhhh.MustNew(func() rhhh.Config { c := cfg; c.Seed = 2; return c }())
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	for i := 0; i < n; i++ {
		var src netip.Addr
		if rng.Intn(10) < 3 {
			src = addr4(7, 7, 7, byte(rng.Intn(256)))
		} else {
			src = addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		if i%2 == 0 {
			a.Update(src, netip.Addr{})
		} else {
			b.Update(src, netip.Addr{})
		}
	}
	merged, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if merged.N() != n {
		t.Fatalf("merged N=%d, want %d", merged.N(), n)
	}
	found := false
	for _, h := range merged.HeavyHitters(0.2) {
		if h.Src == netip.PrefixFrom(addr4(7, 7, 7, 0), 24) {
			found = true
			if h.Upper < 0.2*n || h.Upper > 0.45*n {
				t.Errorf("merged estimate %v for a 30%% aggregate of %d", h.Upper, n)
			}
		}
	}
	if !found {
		t.Fatal("merged snapshot missed the 7.7.7.* aggregate")
	}
}

// TestSnapshotMergeRejectsMismatch: incompatible configurations must error,
// not silently produce garbage.
func TestSnapshotMergeRejectsMismatch(t *testing.T) {
	base := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1}).Snapshot()
	for _, other := range []*rhhh.Snapshot{
		rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.1, Delta: 0.1}).Snapshot(),
		rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1, V: 50}).Snapshot(),
		rhhh.MustNew(rhhh.Config{Dims: 1, Granularity: rhhh.Bit, Epsilon: 0.1, Delta: 0.1}).Snapshot(),
		rhhh.MustNew(rhhh.Config{Dims: 1, IPv6: true, Epsilon: 0.1, Delta: 0.1}).Snapshot(),
		{},
	} {
		if _, err := base.Merge(other); err == nil {
			t.Errorf("mismatched merge accepted: %+v", other)
		}
	}
}

// TestShardedSnapshotMatchesHeavyHitters: the standalone merged snapshot
// answers exactly like the aggregator's own query path when the shards are
// quiescent.
func TestShardedSnapshotMatchesHeavyHitters(t *testing.T) {
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120000; i++ {
		s.Worker(i%s.Workers()).Update(
			addr4(byte(rng.Intn(8)), 1, 1, byte(rng.Intn(256))),
			addr4(2, 2, byte(rng.Intn(8)), byte(rng.Intn(256))),
		)
	}
	s.Sync()
	snap := s.Snapshot()
	snapEqualHH(t, "sharded snapshot", s.HeavyHitters(0.1), snap.HeavyHitters(0.1))
	if snap.N() != s.N() {
		t.Fatalf("snapshot N=%d, sharded N=%d", snap.N(), s.N())
	}
}

// TestShardedQueriesDuringConcurrentUpdates: HeavyHitters and Snapshot run
// while every shard's producer keeps updating — the pause-free read path.
// Run under -race in CI, this is the concurrency contract of the sharded
// snapshot layer.
func TestShardedQueriesDuringConcurrentUpdates(t *testing.T) {
	const shards = 4
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 1}, shards)
	if err != nil {
		t.Fatal(err)
	}
	const perShard = 61440 // multiple of the 64-packet batch below
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sh := s.Worker(shard)
			rng := rand.New(rand.NewSource(int64(shard + 20)))
			victim := addr4(203, 0, 113, 50)
			srcs := make([]netip.Addr, 0, 64)
			dsts := make([]netip.Addr, 0, 64)
			for j := 0; j < perShard; j += 64 {
				srcs, dsts = srcs[:0], dsts[:0]
				for b := 0; b < 64; b++ {
					srcs = append(srcs, addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
					if rng.Intn(10) < 3 {
						dsts = append(dsts, victim)
					} else {
						dsts = append(dsts, addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
					}
				}
				if j%2 == 0 {
					sh.UpdateBatch(srcs, dsts)
				} else {
					for b := range srcs {
						sh.Update(srcs[b], dsts[b])
					}
				}
			}
		}(i)
	}
	// Query continuously while producers run; results must stay well formed.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	queries := 0
	for {
		select {
		case <-done:
			s.Sync() // producers done (wg.Wait happened-before): publish tails
			hits := s.HeavyHitters(0.2)
			found := false
			for _, h := range hits {
				if h.Dst == netip.PrefixFrom(addr4(203, 0, 113, 50), 32) && h.Src.Bits() == 0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("final query missed the (*, victim) aggregate after %d live queries: %v", queries, hits)
			}
			if s.N() != shards*perShard {
				t.Fatalf("N=%d, want %d", s.N(), shards*perShard)
			}
			return
		default:
			for _, h := range s.HeavyHitters(0.2) {
				if h.Upper < h.Lower {
					t.Fatalf("inverted bounds in live query: %+v", h)
				}
			}
			_ = s.Snapshot().N()
			queries++
		}
	}
}

// TestMonitorLoadSnapshotRoundtrip: the persistence cycle behind the
// cmd/hhh and cmd/vswitchd checkpoint flags — capture, marshal, unmarshal,
// restore into a fresh equally-configured monitor — must reproduce the
// source's answers exactly and keep counting from the snapshot's N.
func TestMonitorLoadSnapshotRoundtrip(t *testing.T) {
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, V: 250, Seed: 11}
	src := rhhh.MustNew(cfg)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200000; i++ {
		src.Update(
			addr4(10, byte(rng.Intn(4)), 1, byte(rng.Intn(256))),
			addr4(20, byte(rng.Intn(4)), 2, byte(rng.Intn(256))),
		)
	}
	enc, err := src.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var snap rhhh.Snapshot
	if err := snap.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}

	dst := rhhh.MustNew(cfg)
	if err := dst.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if dst.N() != src.N() {
		t.Fatalf("restored N=%d, want %d", dst.N(), src.N())
	}
	for _, theta := range []float64{0.02, 0.1} {
		snapEqualHH(t, "restored monitor", slices.Clone(src.HeavyHitters(theta)), dst.HeavyHitters(theta))
	}
	before := dst.N()
	for i := 0; i < 1000; i++ {
		dst.Update(addr4(1, 2, 3, 4), addr4(5, 6, 7, 8))
	}
	if dst.N() != before+1000 {
		t.Fatalf("N after restore+updates = %d, want %d", dst.N(), before+1000)
	}

	// Mismatched configurations are rejected.
	if err := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.02, Delta: 0.05, Seed: 1}).LoadSnapshot(&snap); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	if err := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 1}).LoadSnapshot(&snap); err == nil {
		t.Fatal("V mismatch accepted")
	}
	var empty rhhh.Snapshot
	if err := dst.LoadSnapshot(&empty); err == nil {
		t.Fatal("empty snapshot accepted")
	}
}
