package rhhh_test

import (
	"math/rand"
	"net/netip"
	"testing"

	"rhhh"
)

func TestBackendString(t *testing.T) {
	for b, want := range map[rhhh.Backend]string{
		rhhh.StreamSummary:     "stream-summary",
		rhhh.CuckooHeavyKeeper: "chk",
		rhhh.Backend(2):        "backend(2)",
	} {
		if got := b.String(); got != want {
			t.Errorf("Backend(%d).String() = %q, want %q", b, got, want)
		}
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	_, err := rhhh.New(rhhh.Config{Dims: 1, Epsilon: 0.02, Delta: 0.05, Backend: rhhh.Backend(99)})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// chkConfig is the shared 1D config for the public-surface CHK tests.
func chkConfig(seed uint64) rhhh.Config {
	return rhhh.Config{
		Dims: 1, Epsilon: 0.02, Delta: 0.05, Seed: seed,
		Backend: rhhh.CuckooHeavyKeeper,
	}
}

// feedHeavy drives n packets, 40% from inside 181.7.20.0/24, through update.
func feedHeavy(n int, rngSeed int64, update func(src, dst netip.Addr)) {
	rng := rand.New(rand.NewSource(rngSeed))
	for i := 0; i < n; i++ {
		var src netip.Addr
		if rng.Intn(10) < 4 {
			src = addr4(181, 7, 20, byte(rng.Intn(256)))
		} else {
			src = addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		update(src, netip.Addr{})
	}
}

// requireHeavyPrefix asserts 181.7.20.0/24 is in the HHH set.
func requireHeavyPrefix(t *testing.T, hits []rhhh.HeavyHitter) {
	t.Helper()
	for _, h := range hits {
		if h.Src == netip.PrefixFrom(addr4(181, 7, 20, 0), 24) {
			return
		}
	}
	t.Fatalf("181.7.20.* missing from %v", hits)
}

// TestCHKMonitorEndToEnd: the Monitor surface on the Cuckoo Heavy Keeper
// backend — the planted 40% /24 aggregate must surface, and the estimate
// side of CHK (probabilistic under-estimates) keeps Upper ≤ trueish bounds.
func TestCHKMonitorEndToEnd(t *testing.T) {
	m := rhhh.MustNew(chkConfig(1))
	n := int(m.Psi()) + 100_000
	feedHeavy(n, 2, m.Update)
	if m.N() != uint64(n) {
		t.Fatalf("N = %d, want %d", m.N(), n)
	}
	requireHeavyPrefix(t, m.HeavyHitters(0.2))
}

// TestCHKMonitorBatchMatchesSequential: the public batch surfaces stay
// equivalent to per-packet updates on the CHK backend.
func TestCHKMonitorBatchMatchesSequential(t *testing.T) {
	seq := rhhh.MustNew(chkConfig(5))
	bat := rhhh.MustNew(chkConfig(5))
	rng := rand.New(rand.NewSource(6))
	const n = 60_000
	srcs := make([]netip.Addr, n)
	dsts := make([]netip.Addr, n)
	for i := range srcs {
		srcs[i] = addr4(byte(rng.Intn(8)), byte(rng.Intn(8)), byte(rng.Intn(4)), byte(rng.Intn(4)))
		dsts[i] = netip.Addr{}
	}
	for i := range srcs {
		seq.Update(srcs[i], dsts[i])
	}
	bat.UpdateBatch(srcs, dsts)
	a, b := seq.HeavyHitters(0.01), bat.HeavyHitters(0.01)
	if len(a) != len(b) {
		t.Fatalf("HHH set sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("HHH %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestCHKMonitorSnapshotRoundtrip: checkpoint/restore on the CHK backend via
// the public binary codec.
func TestCHKMonitorSnapshotRoundtrip(t *testing.T) {
	m := rhhh.MustNew(chkConfig(3))
	feedHeavy(200_000, 4, m.Update)
	data, err := m.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var snap rhhh.Snapshot
	if err := snap.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	fresh := rhhh.MustNew(chkConfig(30)) // restore must not depend on the seed
	if err := fresh.LoadSnapshot(&snap); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if fresh.N() != m.N() {
		t.Fatalf("restored N = %d, want %d", fresh.N(), m.N())
	}
	requireHeavyPrefix(t, fresh.HeavyHitters(0.2))
	// The restored monitor keeps absorbing updates.
	feedHeavy(50_000, 40, fresh.Update)
	requireHeavyPrefix(t, fresh.HeavyHitters(0.2))
}

// TestCHKSharded: shard-merge runs on CHK snapshots (the snapshot is the
// backend-agnostic merge currency).
func TestCHKSharded(t *testing.T) {
	s, err := rhhh.NewSharded(chkConfig(7), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	i := 0
	feedHeavy(200_000, 8, func(src, dst netip.Addr) {
		s.Worker(i%s.Workers()).Update(src, dst)
		i++
	})
	s.Sync()
	if s.N() != 200_000 {
		t.Fatalf("N = %d", s.N())
	}
	requireHeavyPrefix(t, s.HeavyHitters(0.2))
}

// TestCHKWindowed: tumbling windows flush HHH sets from CHK state.
func TestCHKWindowed(t *testing.T) {
	var results []rhhh.WindowResult
	w, err := rhhh.NewWindowed(chkConfig(9), 50_000, 0.2, func(r rhhh.WindowResult) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	feedHeavy(160_000, 10, w.Update)
	w.Sync()
	if len(results) != 3 {
		t.Fatalf("completed %d windows, want 3", len(results))
	}
	for i, r := range results {
		if r.N != 50_000 {
			t.Fatalf("window %d: N = %d", i, r.N)
		}
		requireHeavyPrefix(t, r.HeavyHitters)
	}
}

// TestCHKWatch: standing queries tick on the CHK backend and admit the
// planted heavy prefix.
func TestCHKWatch(t *testing.T) {
	m := rhhh.MustNew(chkConfig(11))
	admitted := make(map[string]bool)
	_, err := m.Watch(rhhh.WatchOptions{Theta: 0.2, OnDelta: func(d rhhh.Delta) {
		for _, h := range d.Admitted {
			admitted[h.Text] = true
		}
	}})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	feedHeavy(150_000, 12, m.Update)
	m.Tick()
	if !admitted["181.7.20.*"] {
		t.Fatalf("watch never admitted 181.7.20.*: %v", admitted)
	}
}
