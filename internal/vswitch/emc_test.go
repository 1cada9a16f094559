package vswitch

import (
	"fmt"
	"slices"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
)

// refEMC is a plain model of the flat EMC's two-slot policy, the
// differential reference: a map from entry number to the flow it caches (an
// absent entry is dead), whose two candidates are the hash's segments taken
// by division rather than by masks and shifts.
type refEMC struct {
	size    uint64
	key     uint64
	entries map[uint64]refEntry
}

type refEntry struct {
	flow   trace.FiveTuple
	action Action
	hash   uint32
}

func newRefEMC(capacity int, seed uint64) *refEMC {
	size := uint64(1)
	for size < uint64(capacity) {
		size *= 2
	}
	return &refEMC{size: size, key: NewEMC(capacity, seed).key, entries: make(map[uint64]refEntry)}
}

// candidates returns the two entries a flow with hash h may occupy.
func (c *refEMC) candidates(h uint32) [2]uint64 {
	return [2]uint64{uint64(h) % c.size, uint64(h) / c.size % c.size}
}

func (c *refEMC) Lookup(ft trace.FiveTuple) (Action, bool) {
	for _, i := range c.candidates(flowHash(ft, c.key)) {
		if e, ok := c.entries[i]; ok && e.flow == ft {
			return e.action, true
		}
	}
	return Action{}, false
}

// Insert updates ft where it is cached; otherwise it writes the first dead
// candidate, or else the candidate whose stored hash is smaller (the first
// on a tie).
func (c *refEMC) Insert(ft trace.FiveTuple, a Action) {
	h := flowHash(ft, c.key)
	cand := c.candidates(h)
	for _, i := range cand {
		if e, ok := c.entries[i]; ok && e.flow == ft {
			c.entries[i] = refEntry{ft, a, h}
			return
		}
	}
	first, firstLive := c.entries[cand[0]]
	second, secondLive := c.entries[cand[1]]
	victim := cand[0]
	if firstLive && (!secondLive || second.hash < first.hash) {
		victim = cand[1]
	}
	c.entries[victim] = refEntry{ft, a, h}
}

func (c *refEMC) Len() int { return len(c.entries) }

// refForward is the datapath's forwarding stage over the reference cache.
func refForward(t *FlowTable, c *refEMC, def Action, st *Stats, p trace.Packet) Action {
	st.Received++
	ft := p.Flow()
	a, ok := c.Lookup(ft)
	if ok {
		st.EMCHits++
	} else {
		a, ok = t.Lookup(&p)
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

// randFlows returns 2^18 random flows, the set the collision searches draw
// from.
func randFlows() []trace.FiveTuple {
	r := fastrand.New(0xe3c)
	flows := make([]trace.FiveTuple, 1<<18)
	for i := range flows {
		flows[i] = randFlow(r)
	}
	return flows
}

// hashCollisions returns the pairs among flows whose full 32-bit hashes
// under key collide; consecutive flows share a hash.
func hashCollisions(tb testing.TB, flows []trace.FiveTuple, key uint64) []trace.FiveTuple {
	tb.Helper()
	byHash := make(map[uint32]trace.FiveTuple, len(flows))
	var pairs []trace.FiveTuple
	for _, ft := range flows {
		h := flowHash(ft, key)
		if prev, ok := byHash[h]; ok && prev != ft {
			pairs = append(pairs, prev, ft)
		}
		byHash[h] = ft
	}
	if len(pairs) == 0 {
		tb.Fatalf("no full-hash collisions among %d flows", len(flows))
	}
	return pairs
}

// emcPool builds the flows one differential run over c draws from: the
// full-hash collisions, pairs sharing both candidate entries, flows whose
// two segments name one entry, clusters of flows with one candidate in a
// common entry (at both ends of the table and at a random entry), and
// random flows, about three times the capacity in all.
func emcPool(c *EMC, flows, collisions []trace.FiveTuple, r *fastrand.Source) []trace.FiveTuple {
	pool := append([]trace.FiveTuple(nil), collisions...)
	homes := []uint32{0, c.mask, (c.mask - 1) & c.mask, uint32(r.Uint64()) & c.mask}
	perHome := make([]int, len(homes))
	full := 0
	bySlots := make(map[[2]uint32]trace.FiveTuple)
	shared, same := 0, 0
	for _, ft := range flows {
		h := flowHash(ft, c.key)
		slots := [2]uint32{h & c.mask, h >> c.shift & c.mask}
		if prev, ok := bySlots[slots]; ok && shared < 16 {
			pool = append(pool, prev, ft)
			shared += 2
		}
		bySlots[slots] = ft
		if slots[0] == slots[1] && same < 8 {
			pool = append(pool, ft)
			same++
		}
		for i, home := range homes {
			if (slots[0] == home || slots[1] == home) && perHome[i] < 24 {
				if perHome[i]++; perHome[i] == 24 {
					full++
				}
				pool = append(pool, ft)
			}
		}
		if shared == 16 && same == 8 && full == len(homes) {
			break
		}
	}
	for len(pool) < 3*len(c.entries)+8 {
		pool = append(pool, randFlow(r))
	}
	return pool
}

// TestEMCMatchesMapReference drives the flat EMC and the two-slot model
// with the same random Insert/Lookup sequence over colliding flows and
// compares every Lookup and the length after every operation, so the two
// caches hold the same flows throughout.
func TestEMCMatchesMapReference(t *testing.T) {
	flows := randFlows()
	collisions := map[uint64][]trace.FiveTuple{}
	type run struct{ capacity, seeds, ops int }
	var runs []run
	for c := 1; c <= 64; c++ {
		runs = append(runs, run{c, 4, 5000})
	}
	runs = append(runs, run{8192, 2, 60_000})
	for _, rn := range runs {
		for seed := range uint64(rn.seeds) {
			r := fastrand.New(seed*131 + uint64(rn.capacity))
			got, want := NewEMC(rn.capacity, seed), newRefEMC(rn.capacity, seed)
			if collisions[seed] == nil {
				collisions[seed] = hashCollisions(t, flows, got.key)
			}
			pool := emcPool(got, flows, collisions[seed], r)
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

// TestNewEMCCapacity pins the table size (capacity rounded up to a power of
// two) and the panics for a capacity below 1 or too large for both hash
// segments to fit in 32 bits.
func TestNewEMCCapacity(t *testing.T) {
	for capacity, size := range map[int]int{1: 1, 2: 2, 3: 4, 1000: 1024, 8192: 8192, 1 << 16: 1 << 16} {
		if got := len(NewEMC(capacity, 0).entries); got != size {
			t.Errorf("NewEMC(%d) has %d entries, want %d", capacity, got, size)
		}
	}
	for _, capacity := range []int{0, -1, 1<<16 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEMC(%d) did not panic", capacity)
				}
			}()
			NewEMC(capacity, 0)
		}()
	}
}

// fuzzEMCSeed keys FuzzEMC's caches.
const fuzzEMCSeed = 5

// fuzzEMCFlows returns FuzzEMC's alphabet of 32 flows: a full-hash
// collision pair, three trios sharing both candidate entries at 64 entries
// (and so at 4, whose two segments lie inside the first of 64 entries), two
// flows whose segments name one entry at 64, and random flows.
func fuzzEMCFlows(tb testing.TB) []trace.FiveTuple {
	flows := randFlows()
	c := NewEMC(64, fuzzEMCSeed)
	alphabet := hashCollisions(tb, flows, c.key)[:2]
	bySlots := make(map[[2]uint32][]trace.FiveTuple)
	trios, same := 0, 0
	for _, ft := range flows[:4096] {
		h := flowHash(ft, c.key)
		slots := [2]uint32{h & c.mask, h >> c.shift & c.mask}
		if slots[0] == slots[1] {
			if same < 2 {
				alphabet = append(alphabet, ft)
				same++
			}
			continue
		}
		if bySlots[slots] = append(bySlots[slots], ft); len(bySlots[slots]) == 3 && trios < 3 {
			alphabet = append(alphabet, bySlots[slots]...)
			trios++
		}
	}
	if trios < 3 || same < 2 {
		tb.Fatalf("alphabet found %d trios and %d one-entry flows", trios, same)
	}
	r := fastrand.New(fuzzEMCSeed)
	for len(alphabet) < 32 {
		alphabet = append(alphabet, randFlow(r))
	}
	return alphabet
}

// FuzzEMC decodes the input into Insert and Lookup operations over a small
// alphabet of flows that contend for entries, runs them on a 4-entry and a
// 64-entry cache, and compares every Lookup and Len with the two-slot
// model. Each operation is two bytes: the first picks the flow (low five
// bits), Insert or Lookup (top bit) and the drop flag (next bit); the
// second is the inserted action's port.
func FuzzEMC(f *testing.F) {
	alphabet := fuzzEMCFlows(f)
	f.Add([]byte{})
	var all []byte
	for i := range byte(32) {
		all = append(all, 0x80|i, i)
	}
	for i := range byte(32) {
		all = append(all, i, 0)
	}
	f.Add(all)
	// The collision pair and the first trio inserted over one another.
	f.Add([]byte{0x80, 1, 0x81, 2, 0, 0, 1, 0, 0x82, 3, 0x83, 4, 0xc4, 5, 2, 0, 3, 0, 4, 0, 0x80, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, capacity := range []int{4, 64} {
			got, want := NewEMC(capacity, fuzzEMCSeed), newRefEMC(capacity, fuzzEMCSeed)
			for i := 0; i+1 < len(ops); i += 2 {
				ft := alphabet[ops[i]&31]
				if ops[i]&0x80 != 0 {
					a := Action{OutPort: int(ops[i+1]), Drop: ops[i]&0x40 != 0}
					got.Insert(ft, a)
					want.Insert(ft, a)
				} else {
					ga, gok := got.Lookup(ft)
					wa, wok := want.Lookup(ft)
					if ga != wa || gok != wok {
						t.Fatalf("cap %d op %d: Lookup(flow %d) = (%+v, %v), reference (%+v, %v)",
							capacity, i/2, ops[i]&31, ga, gok, wa, wok)
					}
				}
				if got.Len() != want.Len() {
					t.Fatalf("cap %d op %d: Len = %d, reference %d", capacity, i/2, got.Len(), want.Len())
				}
			}
		}
	})
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

// recorder is a per-packet Hook that records the packets it is shown.
type recorder struct{ seen []trace.Packet }

func (r *recorder) OnPacket(p trace.Packet) { r.seen = append(r.seen, p) }

// batchRecorder is a BatchHook that records the packets it is shown, by
// either method.
type batchRecorder struct{ recorder }

func (r *batchRecorder) OnBatch(ps []trace.Packet) { r.seen = append(r.seen, ps...) }

// TestDatapathMatchesMapReference replays chicago16 packets through Process
// and through the forwarding stage over the reference cache with the same
// seed, comparing every action. It then replays them through ProcessBatch
// in bursts of 1, 7, 32 and 256 packets (the last one short), hookless,
// with a BatchHook and with a per-packet Hook. After every burst the
// forwarded count, the counters, the cache's length and the packets the
// hook was shown must match the reference, and at the end the cache's
// entries must equal Process's. At 1 and 2 entries a packet often looks up
// an entry that an earlier packet of its burst has just written, so a burst
// path that read the cache ahead of forwarding would diverge there.
func TestDatapathMatchesMapReference(t *testing.T) {
	pkts := chicagoPackets(1<<18 - 3) // bursts of 7, 32 and 256 end short
	for _, capacity := range []int{1, 2, 64, 8192} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			const seed = 7
			table := diffTable()
			dp := NewDatapath(table, NewEMC(capacity, seed), nil)
			ref := newRefEMC(capacity, seed)
			// After each packet: the reference's counters and cache length,
			// and the packets forwarded so far. For each EMC hit: how many
			// packets earlier its flow was inserted.
			var st Stats
			stats := make([]Stats, len(pkts))
			lens := make([]int, len(pkts))
			fwd := make([]int, len(pkts)+1)
			hitAge := make([]int, len(pkts))
			insertedAt := make(map[trace.FiveTuple]int)
			for i, p := range pkts {
				hits := st.EMCHits
				want := refForward(table, ref, dp.DefaultAction, &st, p)
				if got := dp.Process(p); got != want {
					t.Fatalf("packet %d: action %+v, reference %+v", i, got, want)
				}
				if st.EMCHits != hits {
					hitAge[i] = i - insertedAt[p.Flow()]
				} else {
					insertedAt[p.Flow()] = i
				}
				stats[i], lens[i], fwd[i+1] = st, ref.Len(), fwd[i]
				if !want.Drop {
					fwd[i+1]++
				}
			}
			if dp.Stats() != st || dp.Cache.Len() != ref.Len() {
				t.Fatalf("stats %+v and Len %d, reference %+v and %d", dp.Stats(), dp.Cache.Len(), st, ref.Len())
			}
			for _, burst := range []int{1, 7, 32, 256} {
				inBurst := 0 // hits on a flow inserted earlier in the same burst
				for i, age := range hitAge {
					if age > 0 && i%burst >= age {
						inBurst++
					}
				}
				if capacity <= 2 && burst > 1 && inBurst == 0 {
					t.Fatalf("burst %d: no packet hit a flow inserted earlier in its burst", burst)
				}
				rec, brec := &recorder{}, &batchRecorder{}
				for _, c := range []struct {
					name string
					hook Hook
					rec  *recorder
				}{
					{"hookless", nil, nil},
					{"BatchHook", brec, &brec.recorder},
					{"Hook", rec, rec},
				} {
					batched := NewDatapath(table, NewEMC(capacity, seed), c.hook)
					for off := 0; off < len(pkts); off += burst {
						end := min(off+burst, len(pkts))
						if got := batched.ProcessBatch(pkts[off:end]); got != fwd[end]-fwd[off] {
							t.Fatalf("burst %d %s at %d: forwarded %d, reference %d", burst, c.name, off, got, fwd[end]-fwd[off])
						}
						if got := batched.Stats(); got != stats[end-1] {
							t.Fatalf("burst %d %s at %d: stats %+v, reference %+v", burst, c.name, off, got, stats[end-1])
						}
						if got := batched.Cache.Len(); got != lens[end-1] {
							t.Fatalf("burst %d %s at %d: cache Len = %d, reference %d", burst, c.name, off, got, lens[end-1])
						}
						if c.rec != nil {
							if !slices.Equal(c.rec.seen, pkts[off:end]) {
								t.Fatalf("burst %d %s at %d: hook shown %d packets, not the burst's %d in order",
									burst, c.name, off, len(c.rec.seen), end-off)
							}
							c.rec.seen = c.rec.seen[:0]
						}
					}
					if !slices.Equal(batched.Cache.entries, dp.Cache.entries) {
						t.Fatalf("burst %d %s: final cache entries differ from Process's", burst, c.name)
					}
				}
			}
		})
	}
}

// TestDatapathForwardsAsUncachedTable pins forwarding to a pass with no
// cache, whatever the cache holds: for 2^18 chicago16 packets every action,
// through Process and through ProcessBatch with and without a batch hook,
// must be the flow table's match or else the default action, and the
// Forwarded and Dropped counts must follow. The table has no catch-all
// rule, so the traffic splits between a forwarding rule, a drop rule and
// the default action.
func TestDatapathForwardsAsUncachedTable(t *testing.T) {
	pkts := chicagoPackets(1 << 18)
	var table FlowTable
	table.Add(Rule{Priority: 10, Match: Match{Proto: trace.ProtoUDP, MatchProto: true}, Action: Action{Drop: true}})
	table.Add(Rule{Priority: 5, Match: Match{DstPrefix: hierarchy.AddrFromIPv4(0x80000000), DstBits: 1}, Action: Action{OutPort: 3}})
	for _, capacity := range []int{8192, 64, 1} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			const seed = 11
			hook := &batchRecorder{}
			dps := []*Datapath{
				NewDatapath(&table, NewEMC(capacity, seed), nil),
				NewDatapath(&table, NewEMC(capacity, seed), nil),
				NewDatapath(&table, NewEMC(capacity, seed), hook),
			}
			var fwd, ruleDrops, defaults uint64
			for off := 0; off < len(pkts); off += 256 {
				batch := pkts[off : off+256]
				n := 0
				for i, p := range batch {
					want, ok := table.Lookup(&p)
					if !ok {
						want = dps[0].DefaultAction
						defaults++
					} else if want.Drop {
						ruleDrops++
					}
					if got := dps[0].Process(p); got != want {
						t.Fatalf("packet %d: action %+v, uncached %+v", off+i, got, want)
					}
					if !want.Drop {
						n++
					}
				}
				fwd += uint64(n)
				for _, dp := range dps[1:] {
					if got := dp.ProcessBatch(batch); got != n {
						t.Fatalf("batch at %d: forwarded %d, uncached %d", off, got, n)
					}
				}
			}
			if fwd == 0 || ruleDrops == 0 || defaults == 0 {
				t.Fatalf("table split %d forwarded, %d rule drops, %d defaults: want all three", fwd, ruleDrops, defaults)
			}
			for i, dp := range dps {
				st := dp.Stats()
				if st.Received != uint64(len(pkts)) || st.Forwarded != fwd || st.Dropped != uint64(len(pkts))-fwd {
					t.Fatalf("datapath %d: stats %+v, want %d forwarded and %d dropped of %d",
						i, st, fwd, uint64(len(pkts))-fwd, len(pkts))
				}
				if st.EMCHits == 0 || st.EMCHits+st.TableHits+st.NoMatch != st.Received {
					t.Fatalf("datapath %d: stats %+v: the cache served nothing or hits do not add up", i, st)
				}
			}
			if !slices.Equal(hook.seen, pkts) {
				t.Fatalf("batch hook saw %d packets, not the %d in order", len(hook.seen), len(pkts))
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

// BenchmarkEMC times the cache alone at OVS's 8192 entries, per operation:
// a Lookup that hits, an Insert of a flow never seen before (every call
// misses and writes an entry), and the datapath's hash, lookup and insert
// on a miss over a chicago16 stream (hits/op is its hit ratio).
func BenchmarkEMC(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := NewEMC(8192, 1)
		r := fastrand.New(1)
		var hits []trace.FiveTuple
		for range 4096 {
			c.Insert(randFlow(r), Action{OutPort: 1})
		}
		r.Seed(1)
		for range 4096 {
			if ft := randFlow(r); c.find(&ft, flowHash(ft, c.key)) != nil {
				hits = append(hits, ft)
			}
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, ok := c.Lookup(hits[i]); !ok {
				b.Fatal("cached flow missed")
			}
			if i++; i == len(hits) {
				i = 0
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := NewEMC(8192, 1)
		var ft trace.FiveTuple
		for i := range uint64(1 << 16) { // fill every entry first
			ft.Dst.Hi = i
			c.Insert(ft, Action{OutPort: 1})
		}
		b.ReportAllocs()
		for i := uint64(1); b.Loop(); i++ { // Src.Hi ≠ 0: no flow of the fill
			ft.Src.Hi = i
			c.Insert(ft, Action{OutPort: 1})
		}
	})
	b.Run("chicago16", func(b *testing.B) {
		pkts := chicagoPackets(1 << 16)
		flows := make([]trace.FiveTuple, len(pkts))
		for i, p := range pkts {
			flows[i] = p.Flow()
		}
		c := NewEMC(8192, 1)
		b.ReportAllocs()
		ops, hits := 0, 0
		for b.Loop() {
			ft := flows[ops&(len(flows)-1)]
			if h := flowHash(ft, c.key); c.find(&ft, h) != nil {
				hits++
			} else {
				c.add(&ft, h, Action{OutPort: 1})
			}
			ops++
		}
		b.ReportMetric(float64(hits)/float64(ops), "hits/op")
	})
}

// BenchmarkProcessBatch times the datapath per packet as perfbench's sync
// switches run it: the three-rule table at 8192 entries and a 2^18-packet
// chicago16 ring fed in 256-packet bursts after one warm pass, with no hook
// (bare) and with an EngineHook over a CHK engine (chk: 2D bytes,
// ε = δ = 0.001, V = 10·H).
func BenchmarkProcessBatch(b *testing.B) {
	const ringSize, burst = 1 << 18, 256
	pkts := chicagoPackets(ringSize)
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	for _, c := range []struct {
		name string
		hook Hook
	}{
		{"bare", nil},
		{"chk", NewEngineHook(core.New(dom, core.Config{
			Epsilon: 0.001, Delta: 0.001, V: 10 * dom.Size(), Seed: 1, Backend: core.CHKBackend,
		}))},
	} {
		dp := NewDatapath(diffTable(), NewEMC(8192, 1), c.hook)
		for off := 0; off < ringSize; off += burst {
			dp.ProcessBatch(pkts[off : off+burst])
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			off := 0
			for i := 0; i < b.N; i += burst {
				dp.ProcessBatch(pkts[off : off+burst])
				off = (off + burst) % ringSize
			}
		})
	}
}
