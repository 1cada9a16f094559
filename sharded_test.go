package rhhh_test

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"rhhh"
)

func TestShardedConcurrentUpdatesFindAggregates(t *testing.T) {
	const shards = 4
	s, err := rhhh.NewSharded(rhhh.Config{
		Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 1,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	perShard := int(s.Psi())/shards + 100000

	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			m := s.Worker(shard)
			rng := rand.New(rand.NewSource(int64(shard + 10)))
			victim := addr4(203, 0, 113, 50)
			for j := 0; j < perShard; j++ {
				src := addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				if rng.Intn(10) < 3 {
					m.Update(src, victim)
				} else {
					m.Update(src, addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
				}
			}
		}(i)
	}
	wg.Wait()
	s.Sync() // producers are quiescent: publish their tails

	if !s.Converged() {
		t.Fatalf("combined N=%d below ψ=%v", s.N(), s.Psi())
	}
	hits := s.HeavyHitters(0.2)
	found := false
	for _, h := range hits {
		if h.Dst == netip.PrefixFrom(addr4(203, 0, 113, 50), 32) && h.Src.Bits() == 0 {
			found = true
			total := float64(s.N())
			if h.Upper < 0.2*total || h.Upper > 0.45*total {
				t.Errorf("merged estimate %v for a 30%% aggregate of %v", h.Upper, total)
			}
		}
	}
	if !found {
		t.Fatalf("sharded monitor missed the (*, victim) aggregate: %v", hits)
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := rhhh.NewSharded(rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1}, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := rhhh.NewSharded(rhhh.Config{Dims: 7, Epsilon: 0.1, Delta: 0.1}, 2); err == nil {
		t.Error("invalid inner config accepted")
	}
}

func TestSharded1D(t *testing.T) {
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	n := int(s.Psi()) + 50000
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Worker(i%2).Update(addr4(9, 9, 9, byte(rng.Intn(256))), netip.Addr{})
		} else {
			s.Worker(i%2).Update(addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))), netip.Addr{})
		}
	}
	s.Sync()
	hits := s.HeavyHitters(0.3)
	found := false
	for _, h := range hits {
		if h.Src == netip.PrefixFrom(addr4(9, 9, 9, 0), 24) {
			found = true
		}
	}
	if !found {
		t.Fatalf("1D sharded monitor missed 9.9.9.*: %v", hits)
	}
}
