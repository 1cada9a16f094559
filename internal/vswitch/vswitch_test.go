package vswitch

import (
	"testing"
	"testing/quick"
	"time"

	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
)

func ip4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func pkt(src, dst uint32, sp, dp uint16, proto uint8) trace.Packet {
	return trace.Packet{
		SrcIP: hierarchy.AddrFromIPv4(src), DstIP: hierarchy.AddrFromIPv4(dst),
		SrcPort: sp, DstPort: dp, Proto: proto, Length: 64,
	}
}

func TestMatchCovers(t *testing.T) {
	m := Match{
		SrcPrefix: hierarchy.AddrFromIPv4(ip4(10, 0, 0, 0)), SrcBits: 8,
		Proto: trace.ProtoTCP, MatchProto: true,
		DstPort: 443, MatchDstPort: true,
	}
	covers := func(m Match, p trace.Packet) bool { return m.Covers(&p) }
	if !covers(m, pkt(ip4(10, 9, 8, 7), ip4(1, 1, 1, 1), 1000, 443, trace.ProtoTCP)) {
		t.Error("should match")
	}
	if covers(m, pkt(ip4(11, 9, 8, 7), ip4(1, 1, 1, 1), 1000, 443, trace.ProtoTCP)) {
		t.Error("wrong source prefix matched")
	}
	if covers(m, pkt(ip4(10, 9, 8, 7), ip4(1, 1, 1, 1), 1000, 80, trace.ProtoTCP)) {
		t.Error("wrong port matched")
	}
	if covers(m, pkt(ip4(10, 9, 8, 7), ip4(1, 1, 1, 1), 1000, 443, trace.ProtoUDP)) {
		t.Error("wrong proto matched")
	}
	if !covers(Match{}, pkt(1, 2, 3, 4, trace.ProtoUDP)) {
		t.Error("empty match should cover everything")
	}
}

func TestFlowTablePriority(t *testing.T) {
	var ft FlowTable
	ft.Add(Rule{Priority: 1, Match: Match{}, Action: Action{OutPort: 1}})
	ft.Add(Rule{
		Priority: 10,
		Match:    Match{SrcPrefix: hierarchy.AddrFromIPv4(ip4(10, 0, 0, 0)), SrcBits: 8},
		Action:   Action{Drop: true},
	})
	p := pkt(ip4(10, 1, 1, 1), 0, 0, 0, trace.ProtoTCP)
	a, ok := ft.Lookup(&p)
	if !ok || !a.Drop {
		t.Fatal("high-priority drop rule should win")
	}
	p = pkt(ip4(20, 1, 1, 1), 0, 0, 0, trace.ProtoTCP)
	a, ok = ft.Lookup(&p)
	if !ok || a.Drop || a.OutPort != 1 {
		t.Fatal("default rule should forward to port 1")
	}
}

// TestFlowTableMatchesBruteForce property-checks that Lookup picks the same
// action as a brute-force highest-priority scan.
func TestFlowTableMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, srcs []uint32) bool {
		var ft FlowTable
		var rules []Rule
		// Build a handful of deterministic rules from the seed.
		for i := 0; i < 8; i++ {
			r := Rule{
				Priority: int(seed>>(i*4)) % 16,
				Match: Match{
					SrcPrefix: hierarchy.AddrFromIPv4(uint32(seed) + uint32(i)<<24),
					SrcBits:   (i * 8) % 33,
				},
				Action: Action{OutPort: i},
			}
			ft.Add(r)
			rules = append(rules, r)
		}
		for _, s := range srcs {
			p := pkt(s, 0, 0, 0, trace.ProtoTCP)
			got, gotOK := ft.Lookup(&p)
			var want Action
			wantOK := false
			bestPri := -1 << 30
			for _, r := range rules {
				if r.Match.Covers(&p) && r.Priority > bestPri {
					bestPri = r.Priority
					want = r.Action
					wantOK = true
				}
			}
			if gotOK != wantOK {
				return false
			}
			if gotOK && got.OutPort != want.OutPort {
				// Equal-priority overlapping rules are allowed to tie in
				// any stable order; accept if priorities tie.
				samePri := 0
				for _, r := range rules {
					if r.Match.Covers(&p) && r.Priority == bestPri {
						samePri++
					}
				}
				if samePri <= 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEMCEvictsAtCapacity(t *testing.T) {
	c := NewEMC(4, 1)
	for i := 0; i < 100; i++ {
		ft := trace.FiveTuple{SrcPort: uint16(i)}
		c.Insert(ft, Action{OutPort: i})
	}
	if c.Len() != 4 {
		t.Fatalf("EMC len %d, want 4", c.Len())
	}
	// Every cached entry must still be retrievable with its action.
	hits := 0
	for i := 0; i < 100; i++ {
		ft := trace.FiveTuple{SrcPort: uint16(i)}
		if a, ok := c.Lookup(ft); ok {
			hits++
			if a.OutPort != i {
				t.Fatalf("stale action for %d: %d", i, a.OutPort)
			}
		}
	}
	if hits != 4 {
		t.Fatalf("%d hits, want 4", hits)
	}
}

func TestDatapathPipeline(t *testing.T) {
	var ft FlowTable
	ft.Add(Rule{Priority: 0, Match: Match{}, Action: Action{OutPort: 2}})
	dp := NewDatapath(&ft, NewEMC(1024, 1), nil)
	p := pkt(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2), 1234, 80, trace.ProtoTCP)
	a := dp.Process(p)
	if a.Drop || a.OutPort != 2 {
		t.Fatalf("action %+v", a)
	}
	// Second packet of the same flow must hit the EMC.
	dp.Process(p)
	st := dp.Stats()
	if st.Received != 2 || st.EMCHits != 1 || st.TableHits != 1 || st.Forwarded != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDatapathDefaultDrop(t *testing.T) {
	var ft FlowTable // empty: no rules
	dp := NewDatapath(&ft, NewEMC(16, 1), nil)
	a := dp.Process(pkt(1, 2, 0, 0, trace.ProtoUDP))
	if !a.Drop {
		t.Fatal("no-match should drop by default")
	}
	if dp.Stats().NoMatch != 1 || dp.Stats().Dropped != 1 {
		t.Fatalf("stats %+v", dp.Stats())
	}
}

func TestDatapathHookSeesEveryPacket(t *testing.T) {
	var ft FlowTable
	ft.Add(Rule{Match: Match{}, Action: Action{OutPort: 1}})
	seen := 0
	dp := NewDatapath(&ft, NewEMC(16, 1), HookFunc(func(trace.Packet) { seen++ }))
	gen := trace.NewSynthetic(trace.Config{Seed: 2})
	const n = 1000
	for i := 0; i < n; i++ {
		p, _ := gen.Next()
		dp.Process(p)
	}
	if seen != n {
		t.Fatalf("hook saw %d/%d packets", seen, n)
	}
}

func TestBatchWireRoundTrip(t *testing.T) {
	f := func(total uint64, nodes []uint8, keys []uint64) bool {
		n := len(nodes)
		if len(keys) < n {
			n = len(keys)
		}
		if n > MaxBatch {
			n = MaxBatch
		}
		batch := make([]Sample, n)
		for i := 0; i < n; i++ {
			batch[i] = Sample{Node: nodes[i], Key: keys[i]}
		}
		enc := EncodeBatch(nil, 7, total, batch)
		gotSender, gotTotal, gotBatch, err := DecodeBatch(enc)
		if err != nil || gotSender != 7 || gotTotal != total || len(gotBatch) != n {
			return false
		}
		for i := range gotBatch {
			if gotBatch[i] != batch[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	if _, _, _, err := DecodeBatch(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, _, _, err := DecodeBatch([]byte{'X', 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad magic accepted")
	}
	good := EncodeBatch(nil, 0, 5, []Sample{{Node: 1, Key: 2}})
	if _, _, _, err := DecodeBatch(good[:len(good)-2]); err == nil {
		t.Error("truncated batch accepted")
	}
}

func TestDistributedInProcEndToEnd(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	col := NewCollector(dom, 0.02, 0.05, dom.Size())
	tr := NewInProcTransport(col, 64)
	hook := NewSamplerHook(dom, dom.Size(), 9, tr, 0)

	var ft FlowTable
	ft.Add(Rule{Match: Match{}, Action: Action{OutPort: 1}})
	dp := NewDatapath(&ft, NewEMC(8192, 1), hook)

	// 40% of traffic to one victim /24, rest uniform.
	victim := hierarchy.AddrFromIPv4(ip4(203, 0, 113, 0))
	gen := trace.NewSynthetic(trace.Config{
		Seed:       10,
		Aggregates: []trace.Aggregate{{Fraction: 0.4, Dst: victim, DstBits: 24, Spread: 10000}},
	})
	const n = 600000
	for i := 0; i < n; i++ {
		p, _ := gen.Next()
		dp.Process(p)
	}
	if err := hook.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if col.Packets() != n {
		t.Fatalf("collector saw N=%d, want %d", col.Packets(), n)
	}
	out := col.Output(0.2)
	node, _ := dom.NodeByBits(0, 24)
	want := hierarchy.Pack2D(0, ip4(203, 0, 113, 0))
	found := false
	for _, p := range out {
		if p.Node == node && p.Key == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim /24 missing from distributed output (%d results)", len(out))
	}
}

func TestDistributedUDPEndToEnd(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	col := NewCollector(dom, 0.02, 0.05, dom.Size())
	srv, err := ListenUDP("127.0.0.1:0", col)
	if err != nil {
		t.Skipf("UDP loopback unavailable: %v", err)
	}
	defer srv.Close()
	tr, err := DialUDP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	hook := NewSamplerHook(dom, dom.Size(), 11, tr, 64)
	gen := trace.NewSynthetic(trace.Config{Seed: 12})
	const n = 50000
	for i := 0; i < n; i++ {
		p, _ := gen.Next()
		hook.OnPacket(p)
	}
	if err := hook.Flush(); err != nil {
		t.Fatal(err)
	}
	// UDP delivery is asynchronous; poll briefly for the count to land.
	deadline := time.Now().Add(2 * time.Second)
	for col.Packets() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if col.Packets() == 0 {
		t.Fatal("collector never received samples over UDP")
	}
}

func TestSamplerSubsampling(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	col := NewCollector(dom, 0.02, 0.05, 10*dom.Size())
	tr := NewInProcTransport(col, 64)
	hook := NewSamplerHook(dom, 10*dom.Size(), 13, tr, 0)
	gen := trace.NewSynthetic(trace.Config{Seed: 14})
	const n = 100000
	for i := 0; i < n; i++ {
		p, _ := gen.Next()
		hook.OnPacket(p)
	}
	hook.Flush()
	tr.Close()
	if hook.Packets() != n {
		t.Fatalf("sampler packets = %d", hook.Packets())
	}
	// With V = 10H only ~10% of packets produce samples.
	updates := col.Updates()
	if updates < n/20 || updates > n/5 {
		t.Fatalf("collector received %d samples for %d packets under V=10H", updates, n)
	}
}

// TestMultiSwitchAggregation: two switches report to one collector, which
// sums their per-sender packet counts — the paper's "data from multiple
// network devices" deployment.
func TestMultiSwitchAggregation(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	col := NewCollector(dom, 0.02, 0.05, dom.Size())
	tr := NewInProcTransport(col, 64)

	hookA := NewSamplerHook(dom, dom.Size(), 21, tr, 0)
	hookA.SetSender(1)
	hookB := NewSamplerHook(dom, dom.Size(), 22, tr, 0)
	hookB.SetSender(2)

	genA := trace.NewSynthetic(trace.Config{Seed: 31})
	genB := trace.NewSynthetic(trace.Config{Seed: 32})
	const nA, nB = 30000, 50000
	for i := 0; i < nA; i++ {
		p, _ := genA.Next()
		hookA.OnPacket(p)
	}
	for i := 0; i < nB; i++ {
		p, _ := genB.Next()
		hookB.OnPacket(p)
	}
	if err := hookA.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hookB.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := col.Packets(); got != nA+nB {
		t.Fatalf("collector total = %d, want %d", got, nA+nB)
	}
}
