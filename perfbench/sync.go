package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/telemetry"
	"rhhh/internal/trace"
	"rhhh/internal/vswitch"
)

const (
	syncTheta   = 0.05
	reportEvery = 1 << 16
	syncWait    = 10 * time.Second
)

// newDatapath is internal/experiments' OVS pipeline: a default-forward rule,
// a bogon filter, a management-traffic steering rule, and an OVS-sized EMC.
func newDatapath(seed uint64, hook vswitch.Hook) *vswitch.Datapath {
	var ft vswitch.FlowTable
	ft.Add(vswitch.Rule{Priority: 0, Match: vswitch.Match{}, Action: vswitch.Action{OutPort: 1}})
	ft.Add(vswitch.Rule{
		Priority: 10,
		Match:    vswitch.Match{SrcPrefix: hierarchy.AddrFromIPv4(0xC0000200), SrcBits: 24},
		Action:   vswitch.Action{Drop: true},
	})
	ft.Add(vswitch.Rule{
		Priority: 5,
		Match:    vswitch.Match{DstPort: 22, MatchDstPort: true, Proto: trace.ProtoTCP, MatchProto: true},
		Action:   vswitch.Action{OutPort: 2},
	})
	return vswitch.NewDatapath(&ft, vswitch.NewEMC(8192, seed), hook)
}

// vsw is one switch: a datapath whose hook reports a CHK engine's deltas over
// its own loss-free link into the shared collector.
type vsw struct {
	id   uint16
	eng  *core.Engine[uint64]
	rep  *vswitch.DeltaReporter
	link *vswitch.CollectorLink
	dp   *vswitch.Datapath
	r    *ring
	rec  *recorder

	root    int32
	batches uint64
	fed     uint64
	out     []core.Result[uint64]
	// Per report, ns: the ProcessBatch call that built it, the Pump that
	// applied it, the OutputInto that followed, and all three end to end.
	build, apply   []float64
	query, visible *series
}

func newSwitch(col *vswitch.Collector, id uint16, seed uint64, r *ring) *vsw {
	eng := core.New(dom2D, core.Config{
		Epsilon: epsilon, Delta: deltaProb, V: vParam, Seed: seed, Backend: core.CHKBackend,
	})
	link := vswitch.NewCollectorLink(col, vswitch.FaultConfig{Seed: seed}, vswitch.FaultConfig{Seed: seed + 1})
	rep := vswitch.NewDeltaReporter(eng, link, id, vswitch.ReporterOptions{
		Every: reportEvery, Seed: seed, Boot: uint32(seed) | 1,
	})
	return &vsw{id: id, eng: eng, rep: rep, link: link, dp: newDatapath(seed, rep), r: r,
		rec: newRecorder(fmt.Sprintf("switch%d", id), time.Now())}
}

// pass runs the ring once through the datapath.
func (x *vsw) pass(col *vswitch.Collector, timed bool) { x.feed(col, len(x.r.pkts), timed) }

// feed runs the first n packets of the ring through the datapath in
// batchSize bursts, pumping the link after every burst and, when timed,
// querying the collector after every report it applied.
func (x *vsw) feed(col *vswitch.Collector, n int, timed bool) {
	for off := 0; off < n; off += batchSize {
		n0 := x.eng.N()
		crossing := timed && (n0+batchSize)/reportEvery != n0/reportEvery
		var t0, t1, t2 time.Time
		var reports uint64
		if crossing {
			reports = x.rep.Stats().Reports
			t0 = time.Now()
		}
		sp := x.rec.begin(layerProcessBatch, x.root, x.batches)
		x.dp.ProcessBatch(x.r.pkts[off : off+batchSize])
		x.rec.end(sp)
		built := crossing && x.rep.Stats().Reports != reports
		if built {
			t1 = time.Now()
			x.rec.flag(sp, flagReport)
		}
		sp = x.rec.begin(layerPump, x.root, x.batches)
		moved := x.link.Pump()
		x.rec.end(sp)
		if built && moved > 0 {
			t2 = time.Now()
			sp = x.rec.begin(layerOutputInto, x.root, x.batches)
			x.out, _ = col.OutputInto(x.out, syncTheta)
			x.rec.end(sp)
			t3 := time.Now()
			x.build = append(x.build, float64(t1.Sub(t0)))
			x.apply = append(x.apply, float64(t2.Sub(t1)))
			x.query.add(t0, float64(t3.Sub(t2)))
			x.visible.add(t0, float64(t3.Sub(t0)))
		}
		x.batches++
	}
	x.fed += uint64(n)
}

// bare runs the ring through a hookless copy of the switch's datapath and
// returns the ns spent inside ProcessBatch per packet.
func (x *vsw) bare(seed uint64, passes int) float64 {
	dp := newDatapath(seed, nil)
	var ns float64
	for p := range passes + 1 {
		for off := 0; off < len(x.r.pkts); off += batchSize {
			t0 := time.Now()
			dp.ProcessBatch(x.r.pkts[off : off+batchSize])
			if p > 0 { // the first pass fills the EMC
				ns += float64(time.Since(t0))
			}
		}
	}
	return ns / float64(passes*len(x.r.pkts))
}

// replicaSnapshots extracts each sender's replica, serialized, from a
// collector checkpoint (format in internal/vswitch/failover.go).
func replicaSnapshots(ckpt []byte) (map[uint16][]byte, error) {
	if len(ckpt) < 10 {
		return nil, errors.New("checkpoint too short")
	}
	body := ckpt[6 : len(ckpt)-4] // magic, version, epoch ... CRC
	count, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, errors.New("truncated sample totals")
	}
	body = body[w:]
	for range count {
		if len(body) < 2 {
			return nil, errors.New("truncated sample totals")
		}
		if _, w = binary.Uvarint(body[2:]); w <= 0 {
			return nil, errors.New("truncated sample totals")
		}
		body = body[2+w:]
	}
	_, body, err := core.DecodeEngineSnapshot[uint64](body)
	if err != nil {
		return nil, fmt.Errorf("local state: %w", err)
	}
	count, w = binary.Uvarint(body)
	if w <= 0 {
		return nil, errors.New("truncated senders")
	}
	body = body[w:]
	out := make(map[uint16][]byte, count)
	for range count {
		if len(body) < 10 {
			return nil, errors.New("truncated sender")
		}
		id := binary.BigEndian.Uint16(body)
		if _, w = binary.Uvarint(body[10:]); w <= 0 {
			return nil, errors.New("truncated sender")
		}
		snap := body[10+w:]
		_, rest, err := core.DecodeEngineSnapshot[uint64](snap)
		if err != nil {
			return nil, fmt.Errorf("sender %d: %w", id, err)
		}
		out[id] = snap[:len(snap)-len(rest)]
		body = rest
	}
	return out, nil
}

// runSync is the switch→collector workload: two switch goroutines each run a
// datapath with a delta-reporting CHK engine, pump their link into one
// collector after every burst, and query the collector after every report
// applied. A round is one ring pass per switch.
func runSync(o options) (*result, error) {
	res := &result{workload: "sync"}
	rings := []*ring{
		newRing(o.seed, 0, o.ringPackets, true, true),
		newRing(o.seed, 1, o.ringPackets, true, true),
	}
	passes := warmPasses(syncTheta, len(rings), o.ringPackets)
	baseHeap := liveHeapMB()

	type sut struct {
		col *vswitch.Collector
		sws []*vsw
	}
	sys, setupS, err := medianSetup(o.setups, func() (sut, error) {
		col := vswitch.NewCollector(dom2D, epsilon, deltaProb, vParam)
		sws := make([]*vsw, len(rings))
		var wg sync.WaitGroup
		for i, r := range rings {
			sws[i] = newSwitch(col, uint16(i+1), streamSeed(o.seed, 100+i), r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range passes {
					sws[i].pass(col, false)
				}
				// Stagger the switches' report boundaries by half an
				// interval, so their reports do not meet at the collector.
				sws[i].feed(col, min(i*reportEvery/2, len(r.pkts)), false)
			}()
		}
		wg.Wait()
		for _, x := range sws {
			x.link.Pump()
		}
		return sut{col, sws}, nil
	}, func(sut) {})
	if err != nil {
		return nil, err
	}
	col, sws := sys.col, sys.sws
	stats0 := make([]vswitch.ReporterStats, len(sws))
	warmFed := make([]uint64, len(sws))
	base := time.Now()
	for i, x := range sws {
		x.rec.base = base
		stats0[i] = x.rep.Stats()
		warmFed[i] = x.fed
		x.query, x.visible = newSeries(base), newSeries(base)
	}

	// Rounds end at a barrier, so the switches' report boundaries keep the
	// half-interval stagger set up in warm-up and never meet at the collector.
	var rates, tracedRates []float64
	runtime0 := readGo()
	start := time.Now()
	for round := uint64(0); time.Since(start).Seconds() < o.seconds; round++ {
		traced := o.trace && round%2 == 1
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, x := range sws {
			x.rec.on = traced
			x.root = x.rec.beginAt(rootRound, round, t0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				x.pass(col, true)
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		for _, x := range sws {
			x.rec.end(x.root)
		}
		rate := float64(len(sws)*o.ringPackets) / wall.Seconds() / 1e6
		if traced {
			tracedRates = append(tracedRates, rate)
		} else {
			rates = append(rates, rate)
		}
	}
	mpps := median(rates)
	elapsed := time.Since(start).Seconds()
	runtime1 := readGo()
	heap := liveHeapMB() - baseHeap
	for _, x := range sws {
		heap -= x.query.mb() + x.visible.mb()
	}

	// Quiesce: every switch flushes and waits until the collector acked all
	// it absorbed, with its link pumped in the background meanwhile.
	synced := true
	for _, x := range sws {
		if err := x.rep.Flush(); err != nil {
			return nil, fmt.Errorf("switch %d flush: %w", x.id, err)
		}
		x.link.StartPump(time.Millisecond)
		synced = synced && x.rep.WaitSynced(syncWait)
		x.link.Close()
	}
	res.check("synced", synced, "every reporter reached the acked all-delivered state")
	ckpt, err := col.AppendCheckpoint(nil)
	if err != nil {
		return nil, fmt.Errorf("checkpointing the collector: %w", err)
	}
	replicas, err := replicaSnapshots(ckpt)
	if err != nil {
		return nil, fmt.Errorf("reading replicas: %w", err)
	}
	identical := true
	for _, x := range sws {
		want, err := x.eng.Snapshot().AppendBinary(nil)
		if err != nil {
			return nil, fmt.Errorf("encoding switch %d: %w", x.id, err)
		}
		identical = identical && bytes.Equal(replicas[x.id], want)
	}
	res.check("replicas_identical", identical, "every collector replica is bit-identical to its switch engine's snapshot")

	final, n := col.OutputInto(nil, syncTheta)
	got := refsFromResults(final)
	var streams []fed
	var fedTotal uint64
	for _, x := range sws {
		streams = append(streams, fed{x.r, x.fed})
		fedTotal += x.fed
	}
	res.check("collector_packets", n == fedTotal, fmt.Sprintf("collector covers %d of %d packets", n, fedTotal))
	want := exactHHH(syncTheta, streams...)
	recall, precision := recallPrecision(got, want)
	accuracyChecks(res, recall, precision)
	res.check("planted_aggregate", plantedReported(got), "a prefix inside "+plantedDst.String()+" is reported")

	var (
		build, apply      []float64
		query, visible    = newSeries(base), newSeries(base)
		st                vswitch.ReporterStats
		timedPkts         float64
		emcHits, received float64
	)
	for i, x := range sws {
		build = append(build, x.build...)
		apply = append(apply, x.apply...)
		query.merge(x.query)
		visible.merge(x.visible)
		s := x.rep.Stats()
		st.Reports += s.Reports - stats0[i].Reports
		st.FullReports += s.FullReports - stats0[i].FullReports
		st.DeltaReports += s.DeltaReports - stats0[i].DeltaReports
		st.DeltaNodes += s.DeltaNodes - stats0[i].DeltaNodes
		st.FullBytes += s.FullBytes - stats0[i].FullBytes
		st.DeltaBytes += s.DeltaBytes - stats0[i].DeltaBytes
		s0 := stats0[i]
		res.failed += s.SendErrors - s0.SendErrors + s.Nacks - s0.Nacks +
			s.Resyncs - s0.Resyncs + s.Retransmits - s0.Retransmits
		timedPkts += float64(x.fed) - float64(warmFed[i])
		ds := x.dp.Stats()
		emcHits += float64(ds.EMCHits)
		received += float64(ds.Received)
	}
	res.failed += col.DecodeErrors()
	res.attempted = uint64(timedPkts)/batchSize + st.Reports
	wireBytes := float64(st.FullBytes + st.DeltaBytes)

	res.addReport("sync_mpps", mpps, "Mpps")
	res.addReport("exact_hhh_count", float64(len(want)), "count")
	res.addReport("n_over_psi", float64(n)/sws[0].eng.Psi(), "ratio")
	res.addReport("report_visible_p50_ms", visible.quantile(0.5)/1e6, "ms")
	res.addReport("report_visible_p99_ms", quantile(visible.v, 0.99)/1e6, "ms")
	res.addReport("wire_bytes_per_kpkt", 1e3*ratio(wireBytes, timedPkts), "B/kpkt")
	res.addReport("reports", float64(st.Reports), "count")

	res.e2e = []metric{
		{"setup_s", setupS, "s"},
		{"heap_mb", heap, "MB"},
		{"mpps", mpps, "Mpps"},
		{"hhh_recall", recall, "ratio"},
		{"hhh_precision", precision, "ratio"},
		{"visible_p50_ms", visible.quantile(0.5) / 1e6, "ms"},
		{"read_p50_us", query.quantile(0.5) / 1e3, "us"},
	}

	if o.trace {
		recs := make([]*recorder, len(sws))
		for i, x := range sws {
			recs[i] = x.rec
		}
		ts := summarize(recs)
		// The bare datapath runs after the workload, on the same packets.
		var bare float64
		for _, x := range sws {
			bare += x.bare(streamSeed(o.seed, 200+int(x.id)), 2) / float64(len(sws))
		}
		res.recs = recs
		var hookNs, hookPkts float64
		for _, x := range sws {
			for _, sp := range x.rec.spans {
				if sp.name == layerProcessBatch && sp.parent >= 0 && sp.flag&flagReport == 0 {
					hookNs += float64(sp.end - sp.start)
					hookPkts += batchSize
				}
			}
		}
		var es telemetry.EngineStats
		var samples, packets, decays, takeovers float64
		for _, x := range sws {
			x.eng.TelemetryInto(&es)
			samples += float64(es.Samples.Load())
			packets += float64(es.Packets.Load())
			decays += float64(es.Decays.Load())
			takeovers += float64(es.Takeovers.Load())
		}
		ls := layerSet{}
		ls["core.samples_per_pkt"] = ratio(samples, packets)
		ls["chk.decays_per_sample"] = ratio(decays, samples)
		ls["chk.takeovers_per_sample"] = ratio(takeovers, samples)
		ls["vswitch.bare_ns_per_pkt"] = bare
		ls["vswitch.hook_ns_per_pkt"] = ratio(hookNs, hookPkts) - bare
		ls["vswitch.emc_hit_ratio"] = ratio(emcHits, received)
		ls["vswitch.report_build_us_p50"] = quantile(build, 0.5) / 1e3
		ls["vswitch.report_build_us_p99"] = quantile(build, 0.99) / 1e3
		ls["vswitch.apply_us_p50"] = quantile(apply, 0.5) / 1e3
		ls["vswitch.apply_us_p99"] = quantile(apply, 0.99) / 1e3
		ls["vswitch.collector_query_us_p50"] = quantile(query.v, 0.5) / 1e3
		ls["vswitch.collector_query_us_p99"] = quantile(query.v, 0.99) / 1e3
		ls["vswitch.delta_share"] = ratio(float64(st.DeltaReports), float64(st.Reports))
		ls["vswitch.bytes_per_report"] = ratio(wireBytes, float64(st.Reports))
		ls["vswitch.delta_nodes_per_report"] = ratio(float64(st.DeltaNodes), float64(st.DeltaReports))
		ls["go.allocs_per_pkt"] = ratio(float64(runtime1.allocs-runtime0.allocs), timedPkts)
		ls["go.gc_per_s"] = float64(runtime1.gcs-runtime0.gcs) / elapsed
		ls["trace_overhead_pct"] = 100 * (ratio(mpps, median(tracedRates)) - 1)
		spanLayers(ls, ts)
		res.layers = layerMetrics(ls)
	}
	return res, nil
}
