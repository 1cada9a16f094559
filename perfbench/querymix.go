package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"rhhh"
	"rhhh/internal/telemetry"
)

const (
	mixTheta = 0.01
	// feedRate is the generator's schedule, both workers together: under a
	// fifth of what one worker absorbs, so the update path is mostly idle.
	feedRate = 5e6
	// readRate is the reader's schedule; each cycle of mixCycle requests
	// holds 14 /query bodies, 1 /snapshot body and 1 /metrics body. A fresh
	// query costs several milliseconds at the warmed-up N, so 200 requests/s
	// would saturate the one reader and its backlog would grow all run.
	readRate = 50
	mixCycle = 16
	// maxLate is how far behind its schedule a batch may be fed before it
	// counts as a failed operation.
	maxLate = 50 * time.Millisecond
	// spinWindow is how close to its due time the reader stops sleeping and
	// spins, so requests start on time rather than a timer wake-up late.
	spinWindow = 200 * time.Microsecond
	// traceBlock alternates traced and untraced periods in a traced run.
	traceBlock = 500 * time.Millisecond
)

type requestKind int

const (
	reqQuery requestKind = iota
	reqSnapshot
	reqScrape
)

func kindOf(i int) requestKind {
	switch i % mixCycle {
	case 7:
		return reqSnapshot
	case 15:
		return reqScrape
	default:
		return reqQuery
	}
}

// batchLog is one worker's feed record, written by the generator and read
// by the reader: for batch i, the worker's cumulative packet count after it
// and its due time. n publishes how many entries are written.
type batchLog struct {
	cum []uint64
	due []int64
	n   atomic.Int64
}

// tracedAt reports whether an operation due at t falls in a traced block.
func tracedAt(on bool, t, start time.Time) bool {
	return on && (t.Sub(start)/traceBlock)%2 == 1
}

// runQueryMix is the open-loop read workload: one generator feeds both
// workers at a fixed rate while one reader issues hhhd's request bodies at a
// fixed rate and a Watch subscription ticks at its default interval.
func runQueryMix(o options) (*result, error) {
	res := &result{workload: "query-mix"}
	rings := []*ring{
		newRing(o.seed, 0, o.ringPackets, true, false),
		newRing(o.seed, 1, o.ringPackets, true, false),
	}
	nb := int(o.seconds * feedRate / batchSize)
	logs := make([]*batchLog, len(rings))
	for i := range logs {
		per := (nb + len(rings) - 1) / len(rings)
		logs[i] = &batchLog{cum: make([]uint64, per), due: make([]int64, per)}
	}
	passes := warmPasses(mixTheta, len(rings), o.ringPackets)
	baseHeap := liveHeapMB()

	type sut struct {
		s   *rhhh.Sharded
		reg *telemetry.Registry
	}
	var deliveries atomic.Uint64
	sys, setupS, err := medianSetup(o.setups, func() (sut, error) {
		s, reg, err := newInstrumented(o.seed)
		if err != nil {
			return sut{}, err
		}
		warmSharded(s, rings, passes)
		if _, err := s.Watch(rhhh.WatchOptions{
			Theta:   mixTheta,
			OnDelta: func(rhhh.Delta) { deliveries.Add(1) },
		}); err != nil {
			s.Close()
			return sut{}, fmt.Errorf("subscribing: %w", err)
		}
		return sut{s, reg}, nil
	}, func(x sut) { x.s.Close() })
	if err != nil {
		return nil, err
	}
	s, reg := sys.s, sys.reg
	defer s.Close()

	base := time.Now()
	genRec := newRecorder("generator", base)
	readRec := newRecorder("reader", base)
	var (
		fedPkts   = []uint64{uint64(passes * o.ringPackets), uint64(passes * o.ringPackets)}
		genLate   uint64
		pubs      uint64
		maxLateNs int64
		genEnd    time.Time
	)
	runtime0 := readGo()
	deliveries0 := deliveries.Load()
	start := time.Now()
	genDone := make(chan struct{})

	// Generator: batch k goes to worker k%2, due at start + k·batchSize/rate.
	go func() {
		defer close(genDone)
		interval := float64(time.Second) * batchSize / feedRate
		cursor := make([]int, len(rings))
		epochs := []uint64{s.Worker(0).Epoch(), s.Worker(1).Epoch()}
		for k := range nb {
			due := start.Add(time.Duration(float64(k) * interval))
			now := time.Now()
			if now.Before(due) {
				time.Sleep(max(due.Sub(now), time.Millisecond))
				now = time.Now()
			}
			late := int64(now.Sub(due))
			maxLateNs = max(maxLateNs, late)
			if late > int64(maxLate) {
				genLate++
			}
			w, lg, i := k%len(rings), logs[k%len(rings)], k/len(rings)
			lg.cum[i] = fedPkts[w] + batchSize
			lg.due[i] = int64(due.Sub(base))
			lg.n.Store(int64(i + 1))
			r, off := rings[w], cursor[w]
			genRec.on = tracedAt(o.trace, due, start)
			wk := s.Worker(w)
			sp := genRec.begin(layerUpdateBatch, -1, uint64(k))
			wk.UpdateBatch(r.srcs[off:off+batchSize], r.dsts[off:off+batchSize])
			genRec.end(sp)
			if e := wk.Epoch(); e != epochs[w] {
				epochs[w] = e
				pubs++
				genRec.flag(sp, flagPublished)
			}
			fedPkts[w] += batchSize
			cursor[w] = (off + batchSize) % len(r.srcs)
		}
		genEnd = time.Now()
		for w := range rings {
			s.Worker(w).Sync()
		}
	}()

	// Reader: request i is due at start + i/readRate and timed from then.
	var (
		lags          = newSeries(base)
		cursor        = make([]int, len(rings))
		lat           = [3]*series{newSeries(base), newSeries(base), newSeries(base)} // untraced, by kind
		tracedQuery   []float64
		hits, queries float64
		fresh         float64
		lastEpochs    = epochSum(s)
		marshalErrs   uint64
		scrapeBuf     []byte
	)
	poll := func(now time.Time) {
		for w, lg := range logs {
			// PublishedN before n: every entry the publication covers was
			// stored before it, so it is among the first n.
			pn := s.Worker(w).PublishedN()
			n := int(lg.n.Load())
			for cursor[w] < n && lg.cum[cursor[w]] <= pn {
				lags.add(now, float64(now.Sub(base))-float64(lg.due[cursor[w]]))
				cursor[w]++
			}
		}
	}
	nreq := int(o.seconds * readRate)
	for i := range nreq {
		due := start.Add(time.Duration(i) * time.Second / readRate)
		for {
			now := time.Now()
			poll(now)
			d := due.Sub(now)
			if d <= 0 {
				break
			}
			if d > spinWindow {
				time.Sleep(min(d-spinWindow, time.Millisecond))
			}
		}
		traced := tracedAt(o.trace, due, start)
		readRec.on = traced
		root := readRec.beginAt(rootRequest, uint64(i), due)
		kind := kindOf(i)
		switch kind {
		case reqQuery:
			if e := epochSum(s); e != lastEpochs {
				lastEpochs = e
				fresh++
			}
			sp := readRec.begin(layerHeavyHitters, root, uint64(i))
			hits += float64(len(s.HeavyHitters(mixTheta)))
			readRec.end(sp)
			sp = readRec.begin(layerShardedN, root, uint64(i))
			_ = s.N()
			readRec.end(sp)
			queries++
		case reqSnapshot:
			sp := readRec.begin(layerSnapshot, root, uint64(i))
			snap := s.Snapshot()
			readRec.end(sp)
			sp = readRec.begin(layerMarshal, root, uint64(i))
			_, err := snap.MarshalBinary()
			readRec.end(sp)
			if err != nil {
				marshalErrs++
			}
		case reqScrape:
			sp := readRec.begin(layerGather, root, uint64(i))
			scrapeBuf = reg.Gather(scrapeBuf[:0])
			readRec.end(sp)
		}
		readRec.end(root)
		l := float64(time.Since(due))
		switch {
		case !traced:
			lat[kind].add(due, l)
		case kind == reqQuery:
			tracedQuery = append(tracedQuery, l)
		}
	}
	<-genDone
	poll(time.Now())
	elapsed := time.Since(start).Seconds()
	runtime1 := readGo()
	watchPerS := float64(deliveries.Load()-deliveries0) / elapsed
	heap := liveHeapMB() - baseHeap - lags.mb()
	for _, l := range lat {
		heap -= l.mb()
	}

	// Correctness against the exact reference over exactly what was fed.
	final := refsFromHH(s.HeavyHitters(mixTheta))
	want := exactHHH(mixTheta, fed{rings[0], fedPkts[0]}, fed{rings[1], fedPkts[1]})
	recall, precision := recallPrecision(final, want)
	accuracyChecks(res, recall, precision)
	res.check("planted_aggregate", plantedReported(final), "a prefix inside "+plantedDst.String()+" is reported")
	covered := true
	for w, lg := range logs {
		covered = covered && cursor[w] == int(lg.n.Load())
	}
	res.check("all_batches_visible", covered, "every fed batch became visible to the reader")
	ec, err := scrapeEngines(reg, len(rings))
	if err != nil {
		return nil, err
	}
	res.attempted = uint64(nb + nreq)
	res.failed = genLate + marshalErrs

	timedPkts := float64(nb * batchSize)
	mpps := timedPkts / genEnd.Sub(start).Seconds() / 1e6
	qp50 := lat[reqQuery].quantile(0.5) / 1e3
	res.addReport("feed_mpps", mpps, "Mpps")
	res.addReport("exact_hhh_count", float64(len(want)), "count")
	res.addReport("n_over_psi", float64(s.N())/s.Psi(), "ratio")
	res.addReport("visible_lag_p50_ms", lags.quantile(0.5)/1e6, "ms")
	res.addReport("visible_lag_p99_ms", quantile(lags.v, 0.99)/1e6, "ms")
	res.addReport("query_p50_us", qp50, "us")
	res.addReport("query_p99_us", quantile(lat[reqQuery].v, 0.99)/1e3, "us")
	res.addReport("snapshot_p50_us", lat[reqSnapshot].quantile(0.5)/1e3, "us")
	res.addReport("scrape_p50_us", lat[reqScrape].quantile(0.5)/1e3, "us")
	res.addReport("generator_max_late_ms", float64(maxLateNs)/1e6, "ms")
	res.addReport("watch_deltas_per_s", watchPerS, "1/s")

	res.e2e = []metric{
		{"setup_s", setupS, "s"},
		{"heap_mb", heap, "MB"},
		{"mpps", mpps, "Mpps"},
		{"hhh_recall", recall, "ratio"},
		{"hhh_precision", precision, "ratio"},
		{"visible_p50_ms", lags.quantile(0.5) / 1e6, "ms"},
		{"read_p50_us", qp50, "us"},
	}

	if o.trace {
		recs := []*recorder{readRec, genRec}
		res.recs = recs
		ls := layerSet{}
		updateLayers(ls, genRec.spans, pubs, timedPkts)
		var snapNs, marsNs, gatherNs []float64
		for _, sp := range readRec.spans {
			switch sp.name {
			case layerSnapshot:
				snapNs = append(snapNs, float64(sp.end-sp.start))
			case layerMarshal:
				marsNs = append(marsNs, float64(sp.end-sp.start))
			case layerGather:
				gatherNs = append(gatherNs, float64(sp.end-sp.start))
			}
		}
		ls["rhhh.query_fresh_share"] = ratio(fresh, queries)
		ls["rhhh.hhh_per_query"] = ratio(hits, queries)
		ls["rhhh.snapshot_us_p50"] = median(snapNs) / 1e3
		ls["rhhh.marshal_us_p50"] = median(marsNs) / 1e3
		ls["rhhh.watch_deltas_per_s"] = watchPerS
		ls["telemetry.gather_us_p50"] = median(gatherNs) / 1e3
		ls["core.samples_per_pkt"] = ratio(ec.samples, ec.packets)
		ls["spacesaving.evictions_per_sample"] = ratio(ec.evictions, ec.samples)
		ls["spacesaving.occupancy"] = ratio(ec.occupied, ec.slots)
		ls["go.allocs_per_pkt"] = ratio(float64(runtime1.allocs-runtime0.allocs), timedPkts)
		ls["go.gc_per_s"] = float64(runtime1.gcs-runtime0.gcs) / elapsed
		ls["trace_overhead_pct"] = 100 * (ratio(median(tracedQuery), median(lat[reqQuery].v)) - 1)
		spanLayers(ls, summarize(recs))
		res.layers = layerMetrics(ls)
	}
	return res, nil
}
