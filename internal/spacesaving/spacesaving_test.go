package spacesaving

import (
	"testing"

	"rhhh/internal/fastrand"
)

// implementations names the structures the shared tests run against, one
// subtest each.
func implementations(capacity int) map[string]*Summary[uint64] {
	return map[string]*Summary[uint64]{"summary": New[uint64](capacity)}
}

func TestBasicCounting(t *testing.T) {
	for name, s := range implementations(10) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				s.Increment(7)
			}
			s.Increment(9)
			count, err, ok := s.Query(7)
			if !ok || count != 5 || err != 0 {
				t.Fatalf("Query(7) = (%d,%d,%v)", count, err, ok)
			}
			count, err, ok = s.Query(9)
			if !ok || count != 1 || err != 0 {
				t.Fatalf("Query(9) = (%d,%d,%v)", count, err, ok)
			}
			if _, _, ok := s.Query(1234); ok {
				t.Fatal("unseen key reported as monitored")
			}
			if s.N() != 6 {
				t.Fatalf("N = %d", s.N())
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d", s.Len())
			}
		})
	}
}

func TestEvictionSetsError(t *testing.T) {
	for name, s := range implementations(2) {
		t.Run(name, func(t *testing.T) {
			s.Increment(1) // {1:1}
			s.Increment(1) // {1:2}
			s.Increment(2) // {1:2, 2:1}
			s.Increment(3) // evicts 2 → {1:2, 3:2(err 1)}
			count, err, ok := s.Query(3)
			if !ok || count != 2 || err != 1 {
				t.Fatalf("Query(3) = (%d,%d,%v), want (2,1,true)", count, err, ok)
			}
			if _, _, ok := s.Query(2); ok {
				t.Fatal("evicted key still monitored")
			}
			// Min count never exceeds N/capacity.
			if mc := s.MinCount(); mc > s.N()/2 {
				t.Fatalf("MinCount %d > N/capacity %d", mc, s.N()/2)
			}
		})
	}
}

func TestMinCountBelowCapacityIsZero(t *testing.T) {
	for name, s := range implementations(8) {
		t.Run(name, func(t *testing.T) {
			s.Increment(1)
			s.Increment(2)
			if s.MinCount() != 0 {
				t.Fatalf("MinCount = %d while below capacity", s.MinCount())
			}
			up, lo := s.Bounds(999)
			if up != 0 || lo != 0 {
				t.Fatalf("Bounds(unseen, below capacity) = (%d,%d)", up, lo)
			}
		})
	}
}

func TestSumOfCountsEqualsN(t *testing.T) {
	for name, s := range implementations(16) {
		t.Run(name, func(t *testing.T) {
			r := fastrand.New(1)
			for i := 0; i < 10000; i++ {
				s.Increment(r.Uint64n(100))
			}
			var sum uint64
			s.ForEach(func(_ uint64, count, _ uint64) { sum += count })
			if sum != s.N() {
				t.Fatalf("sum of counts %d != N %d", sum, s.N())
			}
		})
	}
}

func TestErrorNeverExceedsCount(t *testing.T) {
	for name, s := range implementations(8) {
		t.Run(name, func(t *testing.T) {
			r := fastrand.New(2)
			for i := 0; i < 5000; i++ {
				s.Increment(r.Uint64n(200))
				if i%100 == 0 {
					s.ForEach(func(k uint64, count, err uint64) {
						if err > count {
							t.Fatalf("key %d: err %d > count %d", k, err, count)
						}
					})
				}
			}
		})
	}
}

// TestBoundsBracketTruth compares against exact counts on skewed random
// streams: count−err ≤ f ≤ count for monitored keys, f ≤ MinCount for
// unmonitored ones — the Definition 4 contract.
func TestBoundsBracketTruth(t *testing.T) {
	for name, s := range implementations(32) {
		t.Run(name, func(t *testing.T) {
			r := fastrand.New(3)
			exact := map[uint64]uint64{}
			for i := 0; i < 50000; i++ {
				// Zipf-ish: low keys frequent.
				k := r.Uint64n(1 + r.Uint64n(500))
				s.Increment(k)
				exact[k]++
			}
			for k, f := range exact {
				up, lo := s.Bounds(k)
				if _, _, monitored := s.Query(k); monitored {
					if f > up || f < lo {
						t.Fatalf("key %d: bounds [%d,%d] miss true %d", k, lo, up, f)
					}
				} else if f > s.MinCount() {
					t.Fatalf("unmonitored key %d has f=%d > MinCount=%d", k, f, s.MinCount())
				}
			}
		})
	}
}

// TestHeavyHittersMonitored: any key with f > N/capacity must be monitored
// (the classic Space Saving guarantee that powers Definition 5 queries).
func TestHeavyHittersMonitored(t *testing.T) {
	for name, s := range implementations(10) {
		t.Run(name, func(t *testing.T) {
			r := fastrand.New(4)
			exact := map[uint64]uint64{}
			for i := 0; i < 20000; i++ {
				var k uint64
				if r.Uint64n(10) < 4 {
					k = r.Uint64n(3) // three heavy keys share 40%
				} else {
					k = 100 + r.Uint64n(100000)
				}
				s.Increment(k)
				exact[k]++
			}
			for k, f := range exact {
				if f > s.N()/uint64(s.Capacity()) {
					if _, _, ok := s.Query(k); !ok {
						t.Fatalf("heavy key %d (f=%d) not monitored", k, f)
					}
				}
			}
		})
	}
}

func TestWeightedEquivalentToRepeated(t *testing.T) {
	for name := range implementations(8) {
		t.Run(name, func(t *testing.T) {
			mk := func() *Summary[uint64] { return implementations(8)[name] }
			a, b := mk(), mk()
			r := fastrand.New(5)
			for i := 0; i < 300; i++ {
				k := r.Uint64n(20)
				w := 1 + r.Uint64n(5)
				a.IncrementBy(k, w)
				for j := uint64(0); j < w; j++ {
					b.Increment(k)
				}
			}
			if a.N() != b.N() {
				t.Fatalf("N mismatch: %d vs %d", a.N(), b.N())
			}
			// The two are not bit-identical (eviction order may differ) but
			// both must satisfy the estimation contract; compare upper
			// bounds on the common monitored set within error slack.
			a.ForEach(func(k uint64, count, err uint64) {
				if bc, _, ok := b.Query(k); ok {
					if count > bc+b.MinCount() && bc > count+a.MinCount() {
						t.Fatalf("key %d counts diverge: %d vs %d", k, count, bc)
					}
				}
			})
		})
	}
}

func TestIncrementByZeroIsNoop(t *testing.T) {
	for name, s := range implementations(4) {
		t.Run(name, func(t *testing.T) {
			s.IncrementBy(5, 0)
			if s.N() != 0 || s.Len() != 0 {
				t.Fatal("IncrementBy(_, 0) mutated state")
			}
		})
	}
}

func TestReset(t *testing.T) {
	for name, s := range implementations(4) {
		t.Run(name, func(t *testing.T) {
			for i := uint64(0); i < 100; i++ {
				s.Increment(i)
			}
			s.Reset()
			if s.N() != 0 || s.Len() != 0 || s.MinCount() != 0 {
				t.Fatal("Reset left state behind")
			}
			s.Increment(7)
			if c, _, ok := s.Query(7); !ok || c != 1 {
				t.Fatal("instance unusable after Reset")
			}
		})
	}
}

// TestResetStaleLaneFingerprintOne: after Reset the slab and the index refs
// keep stale keys, and an empty index lane must never match. Two keys with
// fingerprint 1 share a bucket; after a Reset only the first is back, and
// the second must be a fresh key, not the stale counter its old lane still
// points at.
func TestResetStaleLaneFingerprintOne(t *testing.T) {
	s := New[uint64](64)
	var a, k uint64
	found := false
	for x := uint64(0); x < 1<<24 && !found; x++ {
		hx := s.hash(x)
		if fpOf(hx) != 1 {
			continue
		}
		for y := x + 1; y < x+1<<14; y++ {
			if hy := s.hash(y); fpOf(hy) == 1 && hy&s.bktMask == hx&s.bktMask {
				a, k, found = x, y, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no two fingerprint-1 keys share a bucket")
	}
	if m := swarMatch(0x00000001, 1); m != 0x80 {
		t.Fatalf("swarMatch(lane 0 = 1, others empty, 1) = %#x, want 0x80", m)
	}
	s.Increment(a)
	s.IncrementBy(k, 5)
	s.Reset()
	s.Increment(a)
	s.Increment(k)
	if c, _, ok := s.Query(k); !ok || c != 1 {
		t.Fatalf("key after Reset: count %d (monitored %v), want 1", c, ok)
	}
	if s.N() != 2 || s.Len() != 2 {
		t.Fatalf("N %d, Len %d after Reset and two keys; want 2 and 2", s.N(), s.Len())
	}
}

func TestCapacityOne(t *testing.T) {
	for name, s := range implementations(1) {
		t.Run(name, func(t *testing.T) {
			s.Increment(1)
			s.Increment(2)
			s.Increment(2)
			count, err, ok := s.Query(2)
			if !ok || count != 3 || err != 1 {
				t.Fatalf("Query(2) = (%d,%d,%v), want (3,1,true)", count, err, ok)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d", s.Len())
			}
		})
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, f := range []func(){
		func() { New[int](0) },
		func() { New[int](-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad capacity did not panic")
				}
			}()
			f()
		}()
	}
}

// TestForEachDescendingSummary: Summary documents descending order, which
// Output relies on for cheap candidate iteration.
func TestForEachDescendingSummary(t *testing.T) {
	s := New[uint64](16)
	r := fastrand.New(6)
	for i := 0; i < 3000; i++ {
		s.Increment(r.Uint64n(16))
	}
	prev := ^uint64(0)
	s.ForEach(func(_ uint64, count, _ uint64) {
		if count > prev {
			t.Fatalf("ForEach not descending: %d after %d", count, prev)
		}
		prev = count
	})
}

func BenchmarkSummaryIncrement(b *testing.B) {
	s := New[uint64](1024)
	r := fastrand.New(1)
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = r.Uint64n(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Increment(keys[i&4095])
	}
}
