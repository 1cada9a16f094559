package vswitch

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
)

// fakeClock is an injectable clock for the reporter's retransmit timers, so
// the fault-injection tests control time explicitly and stay deterministic.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func newSyncEngine(dom *hierarchy.Domain[uint64], eps, del float64, v int, seed uint64) *core.Engine[uint64] {
	return core.New(dom, core.Config{Epsilon: eps, Delta: del, V: v, Seed: seed})
}

func snapshotBytes(t *testing.T, es *core.EngineSnapshot[uint64]) []byte {
	t.Helper()
	b, err := es.AppendBinary(nil)
	if err != nil {
		t.Fatalf("AppendBinary: %v", err)
	}
	return b
}

// fullReport encodes es as a well-formed 'S' v2 full report from sender —
// the frame a reporting switch sends on startup or resync.
func fullReport(t *testing.T, sender uint16, es *core.EngineSnapshot[uint64]) []byte {
	t.Helper()
	h := ReportHeader{Sender: sender, Boot: 1, Seq: 1, Full: true}
	frame, err := EncodeStateMsg(nil, &h, es)
	if err != nil {
		t.Fatalf("EncodeStateMsg: %v", err)
	}
	return frame
}

// replicaBytes returns the collector's replica for sender, serialized.
func replicaBytes(t *testing.T, c *Collector, sender uint16) []byte {
	t.Helper()
	c.mu.Lock()
	st := c.senders[sender]
	c.mu.Unlock()
	if st == nil {
		t.Fatalf("collector has no replica for sender %d", sender)
	}
	return snapshotBytes(t, st.snap)
}

// TestDeltaReporterLossFreeMatchesEngine runs the acked report protocol over
// a fault-free link and checks the strongest form of correctness: the
// collector's replica is bit-identical to the reporting engine's own
// snapshot, and the collector answers queries exactly as the co-located
// engine would.
func TestDeltaReporterLossFreeMatchesEngine(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	const eps, del = 0.01, 0.01
	v := 10 * dom.Size()
	col := NewCollector(dom, eps, del, v)
	link := NewCollectorLink(col, FaultConfig{Seed: 1}, FaultConfig{Seed: 2})
	clk := &fakeClock{t: time.Unix(1e9, 0)}
	eng := newSyncEngine(dom, eps, del, v, 42)
	rep := NewDeltaReporter(eng, link, 7, ReporterOptions{
		Every: 5000, Timeout: 50 * time.Millisecond, Seed: 3, Boot: 99, Now: clk.Now,
	})

	victim := hierarchy.AddrFromIPv4(ip4(203, 0, 113, 0))
	gen := trace.NewSynthetic(trace.Config{Seed: 10, Aggregates: []trace.Aggregate{
		{Fraction: 0.4, Dst: victim, DstBits: 24, Spread: 10000},
	}})
	const n = 120000
	for i := 0; i < n; i++ {
		p, _ := gen.Next()
		rep.OnPacket(p)
		if i%1000 == 999 {
			link.Pump()
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < 100 && !rep.Synced(); i++ {
		link.Pump()
		clk.Advance(10 * time.Millisecond)
		rep.Poll()
	}
	if !rep.Synced() {
		t.Fatalf("reporter never reached sync: stats %+v", rep.Stats())
	}

	want := snapshotBytes(t, eng.Snapshot())
	got := replicaBytes(t, col, 7)
	if !bytes.Equal(want, got) {
		t.Fatalf("collector replica differs from engine snapshot: %d vs %d bytes", len(got), len(want))
	}
	wantOut := eng.Output(0.05)
	gotOut := col.Output(0.05)
	if !slices.Equal(wantOut, gotOut) {
		t.Fatalf("collector output differs from engine output: %d vs %d results", len(gotOut), len(wantOut))
	}
	if col.Packets() != eng.N() {
		t.Fatalf("collector Packets=%d, engine N=%d", col.Packets(), eng.N())
	}
	st := rep.Stats()
	if st.DeltaReports == 0 {
		t.Fatalf("expected delta reports on a loss-free link, stats %+v", st)
	}
	if st.Nacks != 0 || st.Retransmits != 0 {
		t.Fatalf("loss-free link saw recovery traffic: %+v", st)
	}
	cs := col.Stats()
	if cs.DecodeErrors != 0 {
		t.Fatalf("loss-free link produced %d decode errors", cs.DecodeErrors)
	}
}

// TestDeltaReporterDeltaSavings measures the acceptance criterion: in steady
// state on the 2D synthetic trace, delta reports are at least 5x smaller than
// the full state reports they replace. The counterfactual full report is
// encoded at every boundary from the same engine state the delta was built
// from, so the comparison is honest.
func TestDeltaReporterDeltaSavings(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	const eps, del = 0.001, 0.001
	v := 10 * dom.Size()
	col := NewCollector(dom, eps, del, v)
	link := NewCollectorLink(col, FaultConfig{Seed: 5}, FaultConfig{Seed: 6})
	clk := &fakeClock{t: time.Unix(1e9, 0)}
	eng := newSyncEngine(dom, eps, del, v, 17)
	const every = 10000
	rep := NewDeltaReporter(eng, link, 1, ReporterOptions{
		Every: every, Timeout: 50 * time.Millisecond, Seed: 8, Boot: 5, Now: clk.Now,
	})

	victim := hierarchy.AddrFromIPv4(ip4(203, 0, 113, 0))
	gen := trace.NewSynthetic(trace.Config{Seed: 16, Aggregates: []trace.Aggregate{
		{Fraction: 0.4, Dst: victim, DstBits: 24, Spread: 10000},
	}})
	const (
		n      = 500000
		warmup = 100000
	)
	var (
		fullScratch                        core.EngineSnapshot[uint64]
		fullBuf                            []byte
		steadyFullBytes, steadyFullReports uint64
		base                               ReporterStats
	)
	for i := uint64(1); i <= n; i++ {
		p, _ := gen.Next()
		rep.OnPacket(p)
		if i%every == 0 {
			if i > warmup {
				eng.SnapshotInto(&fullScratch)
				h := ReportHeader{Sender: 1, Boot: 5, Seq: uint32(i / every), Full: true}
				var err error
				fullBuf, err = EncodeStateMsg(fullBuf, &h, &fullScratch)
				if err != nil {
					t.Fatalf("EncodeStateMsg: %v", err)
				}
				steadyFullBytes += uint64(len(fullBuf))
				steadyFullReports++
			}
			link.Pump()
			rep.Poll()
			if i == warmup {
				base = rep.Stats()
			}
		}
	}
	st := rep.Stats()
	deltaBytes := st.DeltaBytes - base.DeltaBytes
	deltaReports := st.DeltaReports - base.DeltaReports
	if deltaReports != steadyFullReports {
		t.Fatalf("steady window sent %d delta reports, expected %d (stats %+v)",
			deltaReports, steadyFullReports, st)
	}
	avgFull := float64(steadyFullBytes) / float64(steadyFullReports)
	avgDelta := float64(deltaBytes) / float64(deltaReports)
	ratio := avgFull / avgDelta
	t.Logf("steady state over %d boundaries of %d packets: full %.0f B/report, delta %.0f B/report, ratio %.1fx (delta nodes total %d)",
		steadyFullReports, uint64(every), avgFull, avgDelta, ratio, st.DeltaNodes-base.DeltaNodes)
	if ratio < 5 {
		t.Fatalf("delta reports only %.1fx smaller than full reports, want >= 5x", ratio)
	}
}

// faultScenario is one fault-injection configuration for the property test.
type faultScenario struct {
	name     string
	up, down FaultConfig
}

func faultScenarios() []faultScenario {
	return []faultScenario{
		{"drop20", FaultConfig{Seed: 11, Drop: 0.2}, FaultConfig{Seed: 12, Drop: 0.2}},
		{"dup-reorder", FaultConfig{Seed: 21, Duplicate: 0.2, Reorder: 0.2}, FaultConfig{Seed: 22, Duplicate: 0.2, Reorder: 0.2}},
		{"corrupt20", FaultConfig{Seed: 31, Corrupt: 0.2}, FaultConfig{Seed: 32, Corrupt: 0.2}},
		{"everything", FaultConfig{Seed: 41, Drop: 0.1, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.1},
			FaultConfig{Seed: 42, Drop: 0.1, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.1}},
	}
}

// runFaultScenario drives three reporting switches through a faulty network
// into one collector, with a mid-stream partition of one sender, a sender
// restart (fresh boot id over the same engine), and a forced primary→standby
// fail-over from a checkpoint. After quiescence it asserts the surviving
// collector's per-sender replicas are bit-identical to the engines' final
// snapshots and its query output matches a loss-free reference collector.
func runFaultScenario(t *testing.T, sc faultScenario, packets int) {
	t.Helper()
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	const eps, del = 0.02, 0.02
	v := 10 * dom.Size()
	col := NewCollector(dom, eps, del, v)
	clk := &fakeClock{t: time.Unix(1e9, 0)}

	const nSenders = 3
	type sender struct {
		id   uint16
		eng  *core.Engine[uint64]
		link *CollectorLink
		rep  *DeltaReporter
		gen  interface{ Next() (trace.Packet, bool) }
	}
	senders := make([]*sender, nSenders)
	for i := range senders {
		id := uint16(i + 1)
		eng := newSyncEngine(dom, eps, del, v, uint64(100+i))
		up, down := sc.up, sc.down
		up.Seed += uint64(i) * 101
		down.Seed += uint64(i) * 211
		link := NewCollectorLink(col, up, down)
		rep := NewDeltaReporter(eng, link, id, ReporterOptions{
			Every: 2000, ResyncEvery: 25, Timeout: 40 * time.Millisecond,
			MaxRetries: 4, Seed: uint64(i) + 7, Boot: uint32(1000 + i), Now: clk.Now,
		})
		victim := hierarchy.AddrFromIPv4(ip4(203, 0, byte(100+i), 0))
		gen := trace.NewSynthetic(trace.Config{Seed: uint64(i)*31 + 5, Aggregates: []trace.Aggregate{
			{Fraction: 0.3, Dst: victim, DstBits: 24, Spread: 5000},
		}})
		senders[i] = &sender{id: id, eng: eng, link: link, rep: rep, gen: gen}
	}

	const perRound = 500
	rounds := packets / perRound
	partitionAt, healAt := rounds/3, rounds/3+rounds/8
	failoverAt := rounds / 2
	churnAt := 2 * rounds / 3
	for round := 0; round < rounds; round++ {
		for _, s := range senders {
			for j := 0; j < perRound; j++ {
				p, _ := s.gen.Next()
				s.rep.OnPacket(p)
			}
		}
		clk.Advance(10 * time.Millisecond)
		for _, s := range senders {
			s.link.Pump()
			s.rep.Poll()
		}
		switch round {
		case partitionAt:
			senders[0].link.Up.SetPartitioned(true)
			senders[0].link.Down.SetPartitioned(true)
		case healAt:
			senders[0].link.Up.SetPartitioned(false)
			senders[0].link.Down.SetPartitioned(false)
		case failoverAt:
			// Primary dies; a standby restores the latest checkpoint and the
			// links re-point at it (the switches keep reporting blindly).
			ckpt, err := col.AppendCheckpoint(nil)
			if err != nil {
				t.Fatalf("AppendCheckpoint: %v", err)
			}
			standby := NewCollector(dom, eps, del, v)
			if err := standby.Restore(ckpt); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if standby.Epoch() != col.Epoch()+1 {
				t.Fatalf("standby epoch %d, want %d", standby.Epoch(), col.Epoch()+1)
			}
			col = standby
			for _, s := range senders {
				s.link.SetCollector(col)
			}
		case churnAt:
			// Sender 1's reporting process restarts: same engine state, fresh
			// boot id, sequence numbers from scratch.
			s := senders[1]
			s.rep = NewDeltaReporter(s.eng, s.link, s.id, ReporterOptions{
				Every: 2000, ResyncEvery: 25, Timeout: 40 * time.Millisecond,
				MaxRetries: 4, Seed: 97, Boot: 7777, Now: clk.Now,
			})
		}
	}

	// Quiescence: flush everything and drive clock + pumps until every
	// reporter has its final state acked.
	for _, s := range senders {
		if err := s.rep.Flush(); err != nil {
			t.Fatalf("sender %d Flush: %v", s.id, err)
		}
	}
	synced := false
	for iter := 0; iter < 20000 && !synced; iter++ {
		clk.Advance(30 * time.Millisecond)
		synced = true
		for _, s := range senders {
			s.rep.Poll()
			s.link.Pump()
			if !s.rep.Synced() {
				synced = false
			}
		}
	}
	if !synced {
		for _, s := range senders {
			t.Logf("sender %d: synced=%v stats %+v", s.id, s.rep.Synced(), s.rep.Stats())
		}
		t.Fatalf("quiescence not reached")
	}

	// Property: every replica on the surviving collector is bit-identical to
	// the engine snapshot it mirrors, and the collector as a whole answers
	// exactly like a loss-free reference fed one full report of each final
	// state.
	ref := NewCollector(dom, eps, del, v)
	for _, s := range senders {
		want := snapshotBytes(t, s.eng.Snapshot())
		got := replicaBytes(t, col, s.id)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: sender %d replica differs from engine snapshot (%d vs %d bytes)",
				sc.name, s.id, len(got), len(want))
		}
		ack, err := ref.HandleMessage(fullReport(t, s.id, s.eng.Snapshot()))
		if err != nil {
			t.Fatalf("reference full report: %v", err)
		}
		if a, err := DecodeAckMsg(ack); err != nil || a.Resync {
			t.Fatalf("reference full report ack %+v, err %v (want plain ack)", a, err)
		}
	}
	wantOut, wantN := ref.OutputInto(nil, 0.1)
	gotOut, gotN := col.OutputInto(nil, 0.1)
	if wantN != gotN {
		t.Fatalf("%s: collector weight %d, reference %d", sc.name, gotN, wantN)
	}
	if !slices.Equal(wantOut, gotOut) {
		t.Fatalf("%s: collector output differs from loss-free reference (%d vs %d results)",
			sc.name, len(gotOut), len(wantOut))
	}
	if col.Packets() != ref.Packets() {
		t.Fatalf("%s: collector Packets=%d, reference %d", sc.name, col.Packets(), ref.Packets())
	}
	if got := col.Stats().Failovers; got != 1 {
		t.Fatalf("%s: surviving collector records %d failovers, want 1", sc.name, got)
	}

	// The network must actually have misbehaved for the scenario to mean
	// anything.
	var faults uint64
	for _, s := range senders {
		for _, fs := range []FaultStats{s.link.Up.Stats(), s.link.Down.Stats()} {
			faults += fs.Dropped + fs.Duplicated + fs.Reordered + fs.Corrupted + fs.QueueDropped
		}
	}
	if faults == 0 {
		t.Fatalf("%s: fault links injected nothing", sc.name)
	}
	t.Logf("%s: %d injected faults, collector stats %+v", sc.name, faults, col.Stats())
}

// TestFaultInjectionProperty is the tentpole property test: seeded fault
// schedules at rates up to 20 percent, three senders, a mid-stream partition,
// a sender restart and a forced collector fail-over — and the post-quiescence
// collector state is still bit-identical to a loss-free reference.
func TestFaultInjectionProperty(t *testing.T) {
	packets := 60000
	if testing.Short() {
		packets = 24000
	}
	for _, sc := range faultScenarios() {
		t.Run(sc.name, func(t *testing.T) { runFaultScenario(t, sc, packets) })
	}
}

// TestFaultInjectionSoak re-runs the fault property with freshly randomized
// seeds for a few wall-clock seconds — the CI soak step. Failures log the
// seed so a reproduction is one edit away.
func TestFaultInjectionSoak(t *testing.T) {
	budget := 4 * time.Second
	if testing.Short() {
		budget = 1 * time.Second
	}
	deadline := time.Now().Add(budget)
	seed := uint64(time.Now().UnixNano())
	for iter := 0; time.Now().Before(deadline); iter++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		sc := faultScenario{
			name: "soak",
			up:   FaultConfig{Seed: seed, Drop: 0.15, Duplicate: 0.1, Reorder: 0.15, Corrupt: 0.1},
			down: FaultConfig{Seed: seed ^ 0x9e3779b97f4a7c15, Drop: 0.15, Duplicate: 0.1, Reorder: 0.15, Corrupt: 0.1},
		}
		t.Logf("soak iteration %d, seed %#x", iter, seed)
		runFaultScenario(t, sc, 24000)
	}
}

// TestCheckpointRestoreRoundTrip checks the fail-over serialization: sample
// totals, the sample-fed summaries, and per-sender replicas with their
// protocol positions all survive a checkpoint → restore, and the standby
// resumes one epoch later so deltas from the old incarnation are refused.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	const eps, del = 0.02, 0.02
	v := 10 * dom.Size()
	col := NewCollector(dom, eps, del, v)

	// Sample-mode state from one sender.
	col.Apply(3, 1000, []Sample{{Node: 0, Key: 0}, {Node: 2, Key: 0x0a000000}})
	// Protocol-mode state from another: a full report through HandleMessage so
	// boot/lastSeq are populated.
	eng := newSyncEngine(dom, eps, del, v, 3)
	gen := trace.NewSynthetic(trace.Config{Seed: 4})
	for i := 0; i < 20000; i++ {
		p, _ := gen.Next()
		eng.Update(p.Key2())
	}
	var scratch core.EngineSnapshot[uint64]
	eng.SnapshotInto(&scratch)
	h := ReportHeader{Sender: 9, Epoch: 1, Boot: 77, Seq: 5, Full: true, Dropped: 2}
	frame, err := EncodeStateMsg(nil, &h, &scratch)
	if err != nil {
		t.Fatalf("EncodeStateMsg: %v", err)
	}
	if ack, err := col.HandleMessage(frame); err != nil || ack == nil {
		t.Fatalf("HandleMessage(full) = ack %v, err %v", ack, err)
	}

	ckpt, err := col.AppendCheckpoint(nil)
	if err != nil {
		t.Fatalf("AppendCheckpoint: %v", err)
	}
	standby := NewCollector(dom, eps, del, v)
	if err := standby.Restore(ckpt); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := standby.Epoch(), col.Epoch()+1; got != want {
		t.Fatalf("standby epoch %d, want %d", got, want)
	}
	if standby.Stats().Failovers != 1 {
		t.Fatalf("standby Failovers = %d, want 1", standby.Stats().Failovers)
	}
	if standby.Packets() != col.Packets() {
		t.Fatalf("standby Packets=%d, primary %d", standby.Packets(), col.Packets())
	}
	infos := standby.Senders()
	if len(infos) != 1 || infos[0].Sender != 9 || infos[0].Boot != 77 || infos[0].LastSeq != 5 || infos[0].Dropped != 2 {
		t.Fatalf("restored sender state %+v", infos)
	}
	wantOut, wantN := col.OutputInto(nil, 0.05)
	gotOut, gotN := standby.OutputInto(nil, 0.05)
	if wantN != gotN || !slices.Equal(wantOut, gotOut) {
		t.Fatalf("standby output differs from primary: %d/%d results, weight %d/%d",
			len(gotOut), len(wantOut), gotN, wantN)
	}

	// A delta targeting the old epoch must be refused with a resync request.
	dh := ReportHeader{Sender: 9, Epoch: 1, Boot: 77, Seq: 6, BaseSeq: 5}
	var codec core.DeltaCodec[uint64]
	var empty core.EngineSnapshot[uint64]
	empty.CopyFrom(&scratch)
	dframe, _, err := EncodeDeltaMsg(nil, &dh, &codec, &scratch, &empty, empty.NodeGens(nil))
	if err != nil {
		t.Fatalf("EncodeDeltaMsg: %v", err)
	}
	ack, err := standby.HandleMessage(dframe)
	if err != nil {
		t.Fatalf("HandleMessage(stale-epoch delta): %v", err)
	}
	a, err := DecodeAckMsg(ack)
	if err != nil {
		t.Fatalf("DecodeAckMsg: %v", err)
	}
	if !a.Resync || a.Epoch != standby.Epoch() {
		t.Fatalf("stale-epoch delta acked %+v, want resync at epoch %d", a, standby.Epoch())
	}
}

// TestRestoreRejectsCorruptCheckpoint flips and truncates checkpoint bytes;
// Restore must reject every mutation and leave the collector untouched.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	const eps, del = 0.05, 0.05
	v := 10 * dom.Size()
	col := NewCollector(dom, eps, del, v)
	col.Apply(1, 500, []Sample{{Node: 1, Key: 0x0a000000}})
	ckpt, err := col.AppendCheckpoint(nil)
	if err != nil {
		t.Fatalf("AppendCheckpoint: %v", err)
	}

	pristine := NewCollector(dom, eps, del, v)
	pristineOut, pristineN := pristine.OutputInto(nil, 0.1)
	check := func(b []byte, what string) {
		t.Helper()
		target := NewCollector(dom, eps, del, v)
		if err := target.Restore(b); err == nil {
			t.Fatalf("Restore accepted %s", what)
		}
		if target.Epoch() != 1 || target.Stats().Failovers != 0 {
			t.Fatalf("failed Restore of %s mutated the collector", what)
		}
		out, n := target.OutputInto(nil, 0.1)
		if n != pristineN || !slices.Equal(out, pristineOut) {
			t.Fatalf("failed Restore of %s changed query state", what)
		}
	}
	for _, cut := range []int{0, 1, 5, len(ckpt) / 2, len(ckpt) - 1} {
		check(ckpt[:cut], "a truncation")
	}
	rng := uint64(12345)
	for i := 0; i < 200; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		mut := append([]byte(nil), ckpt...)
		mut[rng%uint64(len(mut))] ^= byte(1 << (rng >> 32 % 8))
		check(mut, "a bit flip")
	}
}

// TestCollectorMergesSnapshotAndSampleSenders: one switch streams samples,
// another reports its engine state through the acked protocol; the union
// query must see both contributions.
func TestCollectorMergesSnapshotAndSampleSenders(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	col := NewCollector(dom, 0.02, 0.05, dom.Size())
	tr := NewInProcTransport(col, 64)

	sampler := NewSamplerHook(dom, dom.Size(), 21, tr, 0)
	sampler.SetSender(1)
	link := NewCollectorLink(col, FaultConfig{Seed: 1}, FaultConfig{Seed: 2})
	clk := &fakeClock{t: time.Unix(1e9, 0)}
	eng := newSyncEngine(dom, 0.02, 0.05, dom.Size(), 22)
	rep := NewDeltaReporter(eng, link, 2, ReporterOptions{Every: 100000, Seed: 3, Boot: 4, Now: clk.Now})

	// Switch 1 sees the victim-A aggregate, switch 2 the victim-B one.
	genA := trace.NewSynthetic(trace.Config{
		Seed: 31,
		Aggregates: []trace.Aggregate{{
			Fraction: 0.5, Dst: hierarchy.AddrFromIPv4(ip4(203, 0, 113, 0)), DstBits: 24, Spread: 10000,
		}},
	})
	genB := trace.NewSynthetic(trace.Config{
		Seed: 32,
		Aggregates: []trace.Aggregate{{
			Fraction: 0.5, Dst: hierarchy.AddrFromIPv4(ip4(198, 51, 100, 0)), DstBits: 24, Spread: 10000,
		}},
	})
	const n = 300000
	for i := 0; i < n; i++ {
		pa, _ := genA.Next()
		sampler.OnPacket(pa)
		pb, _ := genB.Next()
		rep.OnPacket(pb)
		if i%1000 == 999 {
			link.Pump()
		}
	}
	if err := sampler.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !rep.Synced(); i++ {
		link.Pump()
		clk.Advance(10 * time.Millisecond)
		rep.Poll()
	}
	if !rep.Synced() {
		t.Fatalf("reporter never reached sync: stats %+v", rep.Stats())
	}
	if col.Packets() != 2*n {
		t.Fatalf("collector N=%d, want %d", col.Packets(), 2*n)
	}
	out := col.Output(0.15)
	find := func(dst uint32) bool {
		node, _ := dom.NodeByBits(0, 24)
		want := hierarchy.Pack2D(0, dst)
		for _, p := range out {
			if p.Node == node && p.Key == want {
				return true
			}
		}
		return false
	}
	if !find(ip4(203, 0, 113, 0)) {
		t.Error("sampling switch's victim /24 missing from merged output")
	}
	if !find(ip4(198, 51, 100, 0)) {
		t.Error("reporting switch's victim /24 missing from merged output")
	}
}

// TestSnapshotMsgRejectsCorruptInput: an 'S' v2 full report that is
// truncated, mislabelled, or well formed but built under another
// configuration than the collector's must be rejected rather than folded
// into the estimator, and so must the retired 'S' v1 datagram. Every
// rejection returns an error and counts one decode error; the well-formed
// mismatch is also answered with a resync ack (the sender's state is intact,
// only unusable here), and none leaves a replica or packets behind.
func TestSnapshotMsgRejectsCorruptInput(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := newSyncEngine(dom, 0.1, 0.1, dom.Size(), 1)
	for i := 0; i < 1000; i++ {
		eng.Update(uint64(i))
	}
	frame := fullReport(t, 3, eng.Snapshot())
	if ack, err := NewCollector(dom, 0.1, 0.1, dom.Size()).HandleMessage(frame); err != nil || ack == nil {
		t.Fatalf("matching collector refused the report: ack %v, err %v", ack != nil, err)
	}

	reject := func(col *Collector, what string, b []byte, wantResync bool) error {
		t.Helper()
		before := col.DecodeErrors()
		ack, err := col.HandleMessage(b)
		if err == nil {
			t.Fatalf("%s accepted", what)
		}
		if got := col.DecodeErrors(); got != before+1 {
			t.Fatalf("%s: DecodeErrors %d → %d, want +1", what, before, got)
		}
		if !wantResync {
			if ack != nil {
				t.Fatalf("%s: acked a frame that never decoded", what)
			}
		} else if a, err := DecodeAckMsg(ack); err != nil || !a.Resync || a.Sender != 3 || a.Seq != 1 {
			t.Fatalf("%s: ack %+v, err %v (want a resync request to sender 3)", what, a, err)
		}
		if len(col.Senders()) != 0 || col.Packets() != 0 {
			t.Fatalf("%s left state behind: senders %+v, packets %d", what, col.Senders(), col.Packets())
		}
		return err
	}
	col := NewCollector(dom, 0.1, 0.1, dom.Size())
	for _, cut := range []int{0, 1, 3, reportHeaderLen, len(frame) / 2, len(frame) - 1} {
		reject(col, "a truncation", frame[:cut], false)
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	reject(col, "bad magic", bad, false)
	reject(NewCollector(dom, 0.1, 0.1, 10*dom.Size()), "mismatched V", frame, true)
	reject(NewCollector(dom, 0.05, 0.1, dom.Size()), "mismatched ε", frame, true)

	// A switch still sending the fire-and-forget 'S' v1 datagram — version
	// 1, a u16 sender id and a bare engine snapshot, with no report header,
	// checksum or ack — is refused by an error naming both bytes.
	v1, err := eng.Snapshot().AppendBinary([]byte{'S', 1, 0, 3})
	if err != nil {
		t.Fatalf("AppendBinary: %v", err)
	}
	if err := reject(col, "an 'S' v1 datagram", v1, false); !strings.Contains(err.Error(), "'S' version 1") {
		t.Fatalf("error %q does not name the magic and version byte", err)
	}
}
