package main

import (
	"fmt"
	"sync"
	"time"

	"rhhh"
	"rhhh/internal/telemetry"
)

// ingestTheta is the threshold of the read after each round (hhhd's default).
const ingestTheta = 0.01

// producer owns one Worker and replays its ring into it.
type producer struct {
	w   *rhhh.Worker
	r   *ring
	rec *recorder

	root    int32 // this round's root span
	epoch   uint64
	pending time.Time // start of the first batch not yet published
	lags    *series   // from a publication interval's first batch to its publication
	batches uint64
	pubs    uint64
	fed     uint64
}

// pass feeds the whole ring once, in batchSize calls.
func (p *producer) pass() {
	for off := 0; off < len(p.r.srcs); off += batchSize {
		if p.pending.IsZero() {
			p.pending = time.Now()
		}
		sp := p.rec.begin(layerUpdateBatch, p.root, p.batches)
		p.w.UpdateBatch(p.r.srcs[off:off+batchSize], p.r.dsts[off:off+batchSize])
		p.rec.end(sp)
		if e := p.w.Epoch(); e != p.epoch {
			p.epoch = e
			now := time.Now()
			p.lags.add(now, float64(now.Sub(p.pending)))
			p.pending = time.Time{}
			p.pubs++
			p.rec.flag(sp, flagPublished)
		}
		p.batches++
	}
	p.fed += uint64(len(p.r.srcs))
}

// updateLayers derives the update-path metrics from UpdateBatch spans: the
// per-packet cost of calls that did not publish, the duration of calls that
// did, and how often a publication happened.
func updateLayers(ls layerSet, spans []span, pubs uint64, pkts float64) {
	var batchNs, batchPkts float64
	var pubUs []float64
	for _, sp := range spans {
		if sp.name != layerUpdateBatch {
			continue
		}
		if sp.flag&flagPublished != 0 {
			pubUs = append(pubUs, float64(sp.end-sp.start)/1e3)
		} else {
			batchNs += float64(sp.end - sp.start)
			batchPkts += batchSize
		}
	}
	ls["rhhh.batch_ns_per_pkt"] = ratio(batchNs, batchPkts)
	ls["rhhh.publish_batch_us_p50"] = quantile(pubUs, 0.5)
	ls["rhhh.publish_batch_us_p99"] = quantile(pubUs, 0.99)
	ls["rhhh.publish_per_mpkt"] = 1e6 * ratio(float64(pubs), pkts)
}

// epochSum is the sum of every worker's published epoch: it changes exactly
// when some worker published since it was last read.
func epochSum(s *rhhh.Sharded) uint64 {
	var e uint64
	for i := range s.Workers() {
		e += s.Worker(i).Epoch()
	}
	return e
}

// warmSharded feeds each ring passes times into its worker, one goroutine
// per worker: the counters fill and the answer leaves the start-up regime
// before timing.
func warmSharded(s *rhhh.Sharded, rings []*ring, passes int) {
	var wg sync.WaitGroup
	for i, r := range rings {
		w := s.Worker(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range passes {
				for off := 0; off < len(r.srcs); off += batchSize {
					w.UpdateBatch(r.srcs[off:off+batchSize], r.dsts[off:off+batchSize])
				}
			}
		}()
	}
	wg.Wait()
}

// runIngest is the closed-loop ingest workload: two producers, each owning
// one worker of a 2-worker Sharded, feed their rings in 256-packet batches.
// A round is one ring pass per producer; after each round the client reads
// the HHH set. The run repeats rounds for the measured time.
func runIngest(o options) (*result, error) {
	res := &result{workload: "ingest"}
	rings := []*ring{
		newRing(o.seed, 0, o.ringPackets, false, false),
		newRing(o.seed, 1, o.ringPackets, false, false),
	}
	passes := warmPasses(ingestTheta, len(rings), o.ringPackets)
	baseHeap := liveHeapMB()

	type sut struct {
		s   *rhhh.Sharded
		reg *telemetry.Registry
	}
	sys, setupS, err := medianSetup(o.setups, func() (sut, error) {
		s, reg, err := newInstrumented(o.seed)
		if err != nil {
			return sut{}, err
		}
		warmSharded(s, rings, passes)
		return sut{s, reg}, nil
	}, func(x sut) { x.s.Close() })
	if err != nil {
		return nil, err
	}
	s, reg := sys.s, sys.reg
	defer s.Close()

	base := time.Now()
	prods := make([]*producer, len(rings))
	for i, r := range rings {
		w := s.Worker(i)
		prods[i] = &producer{w: w, r: r, rec: newRecorder(fmt.Sprintf("producer%d", i), base),
			epoch: w.Epoch(), fed: uint64(passes * len(r.srcs)), lags: newSeries(base)}
	}
	reader := newRecorder("reader", base)

	var (
		rates, tracedRates []float64
		reads              = newSeries(base)
		hits, fresh        float64
		lastEpochs         = epochSum(s)
		perWorkerCallNs    = make([]float64, len(prods))
		tracedWallNs       float64
	)
	runtime0 := readGo()
	start := time.Now()
	for round := uint64(0); time.Since(start).Seconds() < o.seconds; round++ {
		traced := o.trace && round%2 == 1
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, p := range prods {
			p.rec.on = traced
			p.root = p.rec.beginAt(rootRound, round, t0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.pass()
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		for i, p := range prods {
			p.rec.end(p.root)
			if traced {
				for _, sp := range p.rec.spans[p.root+1:] {
					perWorkerCallNs[i] += float64(sp.end - sp.start)
				}
			}
		}
		rate := float64(len(prods)*o.ringPackets) / wall.Seconds() / 1e6
		if traced {
			tracedRates = append(tracedRates, rate)
			tracedWallNs += float64(wall)
		} else {
			rates = append(rates, rate)
		}

		if e := epochSum(s); e != lastEpochs {
			lastEpochs = e
			fresh++
		}
		reader.on = traced
		q0 := time.Now()
		root := reader.beginAt(rootRequest, round, q0)
		sp := reader.begin(layerHeavyHitters, root, round)
		hits += float64(len(s.HeavyHitters(ingestTheta)))
		reader.end(sp)
		reader.end(root)
		reads.add(q0, float64(time.Since(q0)))
	}
	elapsed := time.Since(start).Seconds()
	runtime1 := readGo()
	heap := liveHeapMB() - baseHeap - reads.mb()
	for _, p := range prods {
		heap -= p.lags.mb()
	}

	// Correctness: every worker got the same number of whole ring passes,
	// so the exact reference is one pass of each ring.
	s.Sync()
	final := refsFromHH(s.HeavyHitters(ingestTheta))
	want := exactHHH(ingestTheta, fed{rings[0], uint64(o.ringPackets)}, fed{rings[1], uint64(o.ringPackets)})
	recall, precision := recallPrecision(final, want)
	accuracyChecks(res, recall, precision)
	ec, err := scrapeEngines(reg, len(prods))
	if err != nil {
		return nil, err
	}
	var packets, pubs, batches uint64
	lags := newSeries(base)
	for _, p := range prods {
		packets += p.fed
		pubs += p.pubs
		batches += p.batches
		lags.merge(p.lags)
	}
	res.check("engine_packets", uint64(ec.packets) == packets,
		fmt.Sprintf("engines counted %.0f of %d packets fed", ec.packets, packets))
	res.attempted = batches + uint64(len(reads.v))

	timedPkts := float64(packets) - float64(passes*len(prods)*o.ringPackets)
	res.addReport("ingest_mpps", median(rates), "Mpps")
	res.addReport("exact_hhh_count", float64(len(want)), "count")
	res.addReport("n_over_psi", float64(s.N())/s.Psi(), "ratio")
	res.addReport("rounds", float64(len(rates)+len(tracedRates)), "count")

	res.e2e = []metric{
		{"setup_s", setupS, "s"},
		{"heap_mb", heap, "MB"},
		{"mpps", median(rates), "Mpps"},
		{"hhh_recall", recall, "ratio"},
		{"hhh_precision", precision, "ratio"},
		{"visible_p50_ms", lags.quantile(0.5) / 1e6, "ms"},
		{"read_p50_us", reads.quantile(0.5) / 1e3, "us"},
	}

	if o.trace {
		recs := []*recorder{reader}
		for _, p := range prods {
			recs = append(recs, p.rec)
		}
		res.recs = recs
		ls := layerSet{}
		var spans []span
		for _, p := range prods {
			spans = append(spans, p.rec.spans...)
		}
		updateLayers(ls, spans, pubs, timedPkts)
		// Aggregate rate over the traced rounds against what each worker
		// achieved inside its own calls.
		tracedPkts := float64(len(tracedRates) * o.ringPackets)
		var inCall float64
		for i := range prods {
			inCall += ratio(tracedPkts, perWorkerCallNs[i])
		}
		ls["rhhh.scaling_eff"] = ratio(float64(len(prods))*tracedPkts/tracedWallNs, inCall)
		ls["rhhh.query_fresh_share"] = ratio(fresh, float64(len(reads.v)))
		ls["rhhh.hhh_per_query"] = ratio(hits, float64(len(reads.v)))
		ls["core.samples_per_pkt"] = ratio(ec.samples, ec.packets)
		ls["spacesaving.evictions_per_sample"] = ratio(ec.evictions, ec.samples)
		ls["spacesaving.occupancy"] = ratio(ec.occupied, ec.slots)
		ls["go.allocs_per_pkt"] = ratio(float64(runtime1.allocs-runtime0.allocs), timedPkts)
		ls["go.gc_per_s"] = float64(runtime1.gcs-runtime0.gcs) / elapsed
		ls["trace_overhead_pct"] = 100 * (ratio(median(rates), median(tracedRates)) - 1)
		spanLayers(ls, summarize(recs))
		res.layers = layerMetrics(ls)
	}
	return res, nil
}
