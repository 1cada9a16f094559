package vswitch

import (
	"fmt"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
)

// refEMC is the two-map exact-match cache the flat EMC replaced, kept as
// the differential reference: a map from five-tuple to action, plus a key
// array and its position map for O(1) random eviction.
type refEMC struct {
	m    map[trace.FiveTuple]Action
	cap  int
	rng  *fastrand.Source
	keys []trace.FiveTuple
	pos  map[trace.FiveTuple]int
}

func newRefEMC(capacity int, seed uint64) *refEMC {
	return &refEMC{
		m:   make(map[trace.FiveTuple]Action, capacity),
		cap: capacity,
		rng: fastrand.New(seed),
		pos: make(map[trace.FiveTuple]int, capacity),
	}
}

func (c *refEMC) Lookup(ft trace.FiveTuple) (Action, bool) {
	a, ok := c.m[ft]
	return a, ok
}

func (c *refEMC) Insert(ft trace.FiveTuple, a Action) {
	if _, ok := c.m[ft]; ok {
		c.m[ft] = a
		return
	}
	if len(c.keys) >= c.cap {
		i := int(c.rng.Uint64n(uint64(len(c.keys))))
		victim := c.keys[i]
		last := len(c.keys) - 1
		c.keys[i] = c.keys[last]
		c.pos[c.keys[i]] = i
		c.keys = c.keys[:last]
		delete(c.m, victim)
		delete(c.pos, victim)
	}
	c.m[ft] = a
	c.pos[ft] = len(c.keys)
	c.keys = append(c.keys, ft)
}

func (c *refEMC) Len() int { return len(c.m) }

// refForward is the datapath's forwarding stage over the reference cache.
func refForward(t *FlowTable, c *refEMC, def Action, st *Stats, p trace.Packet) Action {
	st.Received++
	ft := p.Flow()
	a, ok := c.Lookup(ft)
	if ok {
		st.EMCHits++
	} else {
		a, ok = t.Lookup(p)
		if ok {
			st.TableHits++
		} else {
			st.NoMatch++
			a = def
		}
		c.Insert(ft, a)
	}
	if a.Drop {
		st.Dropped++
	} else {
		st.Forwarded++
	}
	return a
}

func randFlow(r *fastrand.Source) trace.FiveTuple {
	ft := trace.FiveTuple{
		Src:     hierarchy.AddrFromIPv4(uint32(r.Uint64())),
		Dst:     hierarchy.AddrFromIPv4(uint32(r.Uint64())),
		SrcPort: uint16(r.Uint64()),
		DstPort: uint16(r.Uint64()),
		Proto:   uint8(r.Uint64n(3)) * 6,
	}
	if r.Uint64n(8) == 0 { // some IPv6 flows: non-zero low address words
		ft.Src.Lo, ft.Dst.Lo = r.Uint64(), r.Uint64()
	}
	return ft
}

// emcCollisions holds random flows together with every pair among them
// whose full 32-bit index hashes collide.
type emcCollisions struct {
	flows []trace.FiveTuple
	pairs []trace.FiveTuple // consecutive pairs share a hash
}

func findEMCCollisions(t *testing.T) emcCollisions {
	t.Helper()
	r := fastrand.New(0xe3c)
	var out emcCollisions
	byHash := make(map[uint32]trace.FiveTuple, 1<<18)
	for range 1 << 18 {
		ft := randFlow(r)
		out.flows = append(out.flows, ft)
		h := flowHash(ft)
		if prev, ok := byHash[h]; ok && prev != ft {
			out.pairs = append(out.pairs, prev, ft)
		}
		byHash[h] = ft
	}
	if len(out.pairs) == 0 {
		t.Fatal("no full-hash collisions among 2^18 flows")
	}
	return out
}

// emcPool builds the flows one differential run draws from: the
// full-hash collisions, clusters of flows sharing a home cell (at both ends
// of the index, so probe runs wrap), and random flows, about three times
// the capacity in all.
func emcPool(col emcCollisions, capacity int, r *fastrand.Source) []trace.FiveTuple {
	mask := NewEMC(capacity, 0).mask
	pool := append([]trace.FiveTuple(nil), col.pairs...)
	homes := []uint32{0, mask, (mask - 1) & mask, uint32(r.Uint64()) & mask}
	per := make(map[uint32]int)
	for _, ft := range col.flows {
		home := flowHash(ft) & mask
		for _, h := range homes {
			if home == h && per[h] < 24 {
				per[h]++
				pool = append(pool, ft)
			}
		}
	}
	for len(pool) < 3*capacity+8 {
		pool = append(pool, randFlow(r))
	}
	return pool
}

// TestEMCMatchesMapReference drives the flat EMC and the two-map reference
// with the same random Insert/Lookup sequence over colliding flows and
// compares every Lookup and the length after every operation. Equal seeds
// must draw the same eviction victims, so the two caches hold the same
// flows throughout.
func TestEMCMatchesMapReference(t *testing.T) {
	col := findEMCCollisions(t)
	type run struct{ capacity, seeds, ops int }
	var runs []run
	for c := 1; c <= 64; c++ {
		runs = append(runs, run{c, 4, 5000})
	}
	runs = append(runs, run{8192, 2, 60_000})
	for _, rn := range runs {
		for seed := range uint64(rn.seeds) {
			r := fastrand.New(seed*131 + uint64(rn.capacity))
			pool := emcPool(col, rn.capacity, r)
			got, want := NewEMC(rn.capacity, seed), newRefEMC(rn.capacity, seed)
			for op := range rn.ops {
				ft := pool[r.Uint64n(uint64(len(pool)))]
				if r.Uint64n(2) == 0 {
					a := Action{OutPort: int(r.Uint64n(1 << 20)), Drop: r.Uint64n(4) == 0}
					got.Insert(ft, a)
					want.Insert(ft, a)
				} else {
					ga, gok := got.Lookup(ft)
					wa, wok := want.Lookup(ft)
					if ga != wa || gok != wok {
						t.Fatalf("cap %d seed %d op %d: Lookup = (%+v, %v), reference (%+v, %v)",
							rn.capacity, seed, op, ga, gok, wa, wok)
					}
				}
				if got.Len() != want.Len() {
					t.Fatalf("cap %d seed %d op %d: Len = %d, reference %d",
						rn.capacity, seed, op, got.Len(), want.Len())
				}
			}
			for _, ft := range pool {
				ga, gok := got.Lookup(ft)
				wa, wok := want.Lookup(ft)
				if ga != wa || gok != wok {
					t.Fatalf("cap %d seed %d: final Lookup(%+v) = (%+v, %v), reference (%+v, %v)",
						rn.capacity, seed, ft, ga, gok, wa, wok)
				}
			}
		}
	}
}

// diffTable is a three-rule flow table: default forward, a bogon drop and a
// management-traffic steer.
func diffTable() *FlowTable {
	var ft FlowTable
	ft.Add(Rule{Priority: 0, Match: Match{}, Action: Action{OutPort: 1}})
	ft.Add(Rule{
		Priority: 10,
		Match:    Match{SrcPrefix: hierarchy.AddrFromIPv4(0xC0000200), SrcBits: 24},
		Action:   Action{Drop: true},
	})
	ft.Add(Rule{
		Priority: 5,
		Match:    Match{DstPort: 22, MatchDstPort: true, Proto: trace.ProtoTCP, MatchProto: true},
		Action:   Action{OutPort: 2},
	})
	return &ft
}

func chicagoPackets(n int) []trace.Packet {
	gen := trace.NewSynthetic(trace.Profile("chicago16"))
	out := make([]trace.Packet, n)
	for i := range out {
		out[i], _ = gen.Next()
	}
	return out
}

// TestDatapathMatchesMapReference replays 2^18 chicago16 packets through a
// datapath and through the forwarding stage over the reference cache with
// the same seed: every action, every batch's forwarded count and the final
// counters must agree, at the OVS cache size and at a small one.
func TestDatapathMatchesMapReference(t *testing.T) {
	pkts := chicagoPackets(1 << 18)
	for _, capacity := range []int{8192, 64} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			const seed = 7
			table := diffTable()
			dp := NewDatapath(table, NewEMC(capacity, seed), nil)
			batched := NewDatapath(table, NewEMC(capacity, seed), nil)
			ref := newRefEMC(capacity, seed)
			var st Stats
			for off := 0; off < len(pkts); off += 256 {
				batch := pkts[off : off+256]
				fwd := 0
				for i, p := range batch {
					want := refForward(table, ref, dp.DefaultAction, &st, p)
					if got := dp.Process(p); got != want {
						t.Fatalf("packet %d: action %+v, reference %+v", off+i, got, want)
					}
					if !want.Drop {
						fwd++
					}
				}
				if got := batched.ProcessBatch(batch); got != fwd {
					t.Fatalf("batch at %d: forwarded %d, reference %d", off, got, fwd)
				}
			}
			if dp.Stats() != st || batched.Stats() != st {
				t.Fatalf("stats %+v (batched %+v), reference %+v", dp.Stats(), batched.Stats(), st)
			}
			if dp.Cache.Len() != ref.Len() {
				t.Fatalf("cache Len = %d, reference %d", dp.Cache.Len(), ref.Len())
			}
		})
	}
}

// TestDatapathProcessBatchZeroAlloc pins a warm ProcessBatch at zero
// allocations, bare and with an RHHH engine hook on either counter backend.
func TestDatapathProcessBatchZeroAlloc(t *testing.T) {
	pkts := chicagoPackets(1 << 16)
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	engine := func(b core.Backend) Hook {
		return NewEngineHook(core.New(dom, core.Config{
			Epsilon: 0.001, Delta: 0.001, V: 10 * dom.Size(), Seed: 5, Backend: b,
		}))
	}
	for _, c := range []struct {
		name string
		hook Hook
	}{
		{"NopHook", NopHook{}},
		{"EngineHook", engine(core.SpaceSavingBackend)},
		{"EngineHook-CHK", engine(core.CHKBackend)},
	} {
		dp := NewDatapath(diffTable(), NewEMC(8192, 3), c.hook)
		for off := 0; off < len(pkts); off += 256 {
			dp.ProcessBatch(pkts[off : off+256])
		}
		off := 0
		allocs := testing.AllocsPerRun(200, func() {
			dp.ProcessBatch(pkts[off : off+256])
			off = (off + 256) % len(pkts)
		})
		if allocs != 0 {
			t.Errorf("%s: warm ProcessBatch allocates %.2f times per batch", c.name, allocs)
		}
	}
}
