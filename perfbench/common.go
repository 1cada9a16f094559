package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"rhhh"
	"rhhh/internal/core"
	"rhhh/internal/exact"
	"rhhh/internal/hierarchy"
	"rhhh/internal/telemetry"
	"rhhh/internal/trace"
)

// The configuration every workload shares: hhhd's defaults on the 2D byte
// hierarchy (H=25), with V=10·H.
const (
	epsilon   = 0.001
	deltaProb = 0.001
	batchSize = 256
)

var (
	dom2D  = hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	vParam = 10 * dom2D.Size()

	// plantedDst is the DDoS aggregate vswitchd plants in its traffic.
	plantedDst  = netip.MustParsePrefix("203.0.113.0/24")
	plantedAddr = uint32(0xCB007100)
)

// warmFactor sets how far past the start-up regime warm-up goes. Below
// N* = (2Z·√V/θ)², the sampling correction 2Z√(N·V) exceeds θN and every
// monitored prefix qualifies, so answers are huge and slow; warm-up feeds
// until the combined stream reaches warmFactor·N*.
const warmFactor = 2.0

// warmPasses is how many passes over each of streams rings of ringLen
// packets bring the combined stream to warmFactor·N* for θ.
func warmPasses(theta float64, streams, ringLen int) int {
	nStar := math.Pow(core.SamplingCorrection(1, vParam, 1, deltaProb)/theta, 2)
	return int(math.Ceil(warmFactor * nStar / float64(streams*ringLen)))
}

// options sizes one run. The command line sets seed, seconds and trace; the
// sizes are fixed and shrunk only by the toy-size test.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string // directory for span files ("" = do not write)

	ringPackets int // pre-generated packets per producer or switch
	setups      int // set-up repetitions; setup_s is their median
}

// mix64 is the splitmix64 finalizer, used to derive per-stream seeds.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// streamSeed derives the seed of stream i (a producer or a switch).
func streamSeed(seed uint64, i int) uint64 { return mix64(seed*0x100 + uint64(i) + 1) }

// trafficConfig is the chicago16 profile, plus the planted aggregate when
// asked.
func trafficConfig(planted bool) trace.Config {
	tc := trace.Profile("chicago16")
	if planted {
		tc.Aggregates = []trace.Aggregate{{
			Fraction: 0.15,
			Dst:      hierarchy.AddrFromIPv4(plantedAddr),
			DstBits:  24,
			Spread:   1 << 15,
		}}
	}
	return tc
}

// ring is one stream's pre-generated packets, replayed in order and wrapped
// around. Its length is a multiple of batchSize.
type ring struct {
	pkts       []trace.Packet // kept only for the switch workload
	srcs, dsts []netip.Addr   // kept only for the rhhh workloads
	keys       []uint64       // 2D keys, for the exact reference
}

// newRing builds stream i's ring: the i-th stretch of n packets of the
// chicago16 trace, shuffled by the run's seed. The trace model is the same
// on every run, so the exact answer barely moves between seeds; the seed
// moves the packet order and, through the engines' seeds, the sampling.
func newRing(seed uint64, stream, n int, planted, packets bool) *ring {
	gen := trace.NewSynthetic(trafficConfig(planted))
	for range stream * n {
		gen.Next()
	}
	pk := make([]trace.Packet, n)
	for i := range pk {
		pk[i], _ = gen.Next()
	}
	rand.New(rand.NewPCG(seed, uint64(stream))).Shuffle(n, func(i, j int) { pk[i], pk[j] = pk[j], pk[i] })
	r := &ring{keys: make([]uint64, n)}
	if packets {
		r.pkts = pk
	} else {
		r.srcs = make([]netip.Addr, n)
		r.dsts = make([]netip.Addr, n)
	}
	for i, p := range pk {
		s, d := p.SrcIP.IPv4(), p.DstIP.IPv4()
		r.keys[i] = hierarchy.Pack2D(s, d)
		if !packets {
			r.srcs[i] = addr4(s)
			r.dsts[i] = addr4(d)
		}
	}
	return r
}

func addr4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// fed is how many packets one stream delivered, replaying its ring from the
// start.
type fed struct {
	r     *ring
	total uint64
}

// exactHHH is the exact HHH set (Definition 8) over the packets the streams
// delivered.
func exactHHH(theta float64, streams ...fed) []exact.Result[uint64] {
	st := exact.New(dom2D)
	for _, f := range streams {
		l := uint64(len(f.r.keys))
		passes, rest := f.total/l, f.total%l
		for i, k := range f.r.keys {
			w := passes
			if uint64(i) < rest {
				w++
			}
			if w > 0 {
				st.AddWeighted(k, w)
			}
		}
	}
	return st.HHH(theta)
}

// prefixRef is one reported prefix as the exact reference names it.
type prefixRef = exact.PrefixRef[uint64]

// refsFromHH maps rhhh's public results onto lattice nodes and masked keys.
func refsFromHH(hh []rhhh.HeavyHitter) []prefixRef {
	out := make([]prefixRef, 0, len(hh))
	for _, h := range hh {
		node, ok := dom2D.NodeByBits(h.Src.Bits(), h.Dst.Bits())
		if !ok {
			continue
		}
		s, d := h.Src.Addr().As4(), h.Dst.Addr().As4()
		k := hierarchy.Pack2D(beU32(s), beU32(d))
		out = append(out, prefixRef{Key: dom2D.Mask(k, node), Node: node})
	}
	return out
}

func refsFromResults(rs []core.Result[uint64]) []prefixRef {
	out := make([]prefixRef, len(rs))
	for i, r := range rs {
		out[i] = prefixRef{Key: r.Key, Node: r.Node}
	}
	return out
}

func beU32(b [4]byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// recallPrecision compares a reported set with the exact one.
func recallPrecision(got []prefixRef, want []exact.Result[uint64]) (recall, precision float64) {
	hit := 0
	for _, g := range got {
		if exact.Contains(want, g.Key, g.Node) {
			hit++
		}
	}
	recall, precision = 1, 1
	if len(want) > 0 {
		recall = float64(hit) / float64(len(want))
	}
	if len(got) > 0 {
		precision = float64(hit) / float64(len(got))
	}
	return recall, precision
}

// plantedReported reports whether some reported prefix lies inside the
// planted destination aggregate.
func plantedReported(got []prefixRef) bool {
	for _, g := range got {
		n := dom2D.Node(g.Node)
		if n.DstBits >= plantedDst.Bits() && uint32(g.Key)&0xffffff00 == plantedAddr {
			return true
		}
	}
	return false
}

// Accuracy floors for the recall and precision checks. RHHH's output is
// conservative: every prefix whose upper bound plus the sampling correction
// clears θN is reported, so precision sits well below recall until N ≥ ψ,
// which no run reaches (N/ψ is printed beside them).
const (
	minRecall    = 0.8
	minPrecision = 0.15
)

// accuracyChecks adds the recall and precision checks to res.
func accuracyChecks(res *result, recall, precision float64) {
	res.check("recall", recall >= minRecall, fmt.Sprintf("%.3f (floor %.2f)", recall, minRecall))
	res.check("precision", precision >= minPrecision, fmt.Sprintf("%.3f (floor %.2f)", precision, minPrecision))
}

// shardedConfig is hhhd's default monitor configuration.
func shardedConfig(seed uint64) rhhh.Config {
	return rhhh.Config{
		Dims: 2, Granularity: rhhh.Byte,
		Epsilon: epsilon, Delta: deltaProb, V: vParam,
		Seed: seed, Algorithm: rhhh.RHHH, Backend: rhhh.StreamSummary,
	}
}

// newInstrumented builds a 2-worker Sharded registered with a fresh
// registry the way hhhd's server does.
func newInstrumented(seed uint64) (*rhhh.Sharded, *telemetry.Registry, error) {
	s, err := rhhh.NewSharded(shardedConfig(seed), 2)
	if err != nil {
		return nil, nil, fmt.Errorf("building the sharded monitor: %w", err)
	}
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	reg.GaugeFunc("hhhd_published_packets", "", "Combined published stream weight (N).", func() float64 {
		return float64(s.N())
	})
	reg.GaugeFunc("hhhd_converged", "", "Whether the published N passed the psi convergence bound.", func() float64 {
		if s.Converged() {
			return 1
		}
		return 0
	})
	return s, reg, nil
}

// engineCounters sums the per-worker engine series of a scrape.
type engineCounters struct {
	packets, samples, evictions, occupied, slots float64
}

func scrapeEngines(reg *telemetry.Registry, workers int) (engineCounters, error) {
	fams, err := telemetry.ParseProm(string(reg.Gather(nil)))
	if err != nil {
		return engineCounters{}, fmt.Errorf("parsing the scrape: %w", err)
	}
	var c engineCounters
	for w := range workers {
		labels := fmt.Sprintf(`worker="%d"`, w)
		for _, f := range []struct {
			name string
			dst  *float64
		}{
			{"rhhh_engine_packets_total", &c.packets},
			{"rhhh_engine_samples_total", &c.samples},
			{"rhhh_counter_evictions_total", &c.evictions},
			{"rhhh_counter_occupied", &c.occupied},
			{"rhhh_counter_slots", &c.slots},
		} {
			s, ok := telemetry.Lookup(fams, f.name, f.name, labels)
			if !ok {
				return engineCounters{}, fmt.Errorf("scrape lacks %s{%s}", f.name, labels)
			}
			*f.dst += s.Value
		}
	}
	return c, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// A series' quantiles are taken per sliceLen of run time, over slices that
// hold at least minSlice samples, and the median across slices is reported:
// the host this benchmark was built on changes speed every few seconds, and
// a slow stretch then moves the figure only when it covers most of the run.
const (
	sliceLen = time.Second
	minSlice = 20
)

// series is a sample of latencies, each stamped with when it was taken.
type series struct {
	start time.Time
	at    []time.Duration
	v     []float64 // ns
}

func newSeries(start time.Time) *series { return &series{start: start} }

func (s *series) add(at time.Time, ns float64) {
	s.at = append(s.at, at.Sub(s.start))
	s.v = append(s.v, ns)
}

// mb is the memory the series holds, which heap_mb leaves out.
func (s *series) mb() float64 { return float64(8*(cap(s.at)+cap(s.v))) / (1 << 20) }

func (s *series) merge(o *series) {
	s.at = append(s.at, o.at...)
	s.v = append(s.v, o.v...)
}

// quantile is the median, over the run's sliceLen slices that hold at least
// minSlice samples, of each slice's q-quantile. Without such a slice it is
// the plain q-quantile.
func (s *series) quantile(q float64) float64 {
	bySlice := map[int64][]float64{}
	for i, v := range s.v {
		k := int64(s.at[i] / sliceLen)
		bySlice[k] = append(bySlice[k], v)
	}
	var qs []float64
	for _, vs := range bySlice {
		if len(vs) >= minSlice {
			qs = append(qs, quantile(vs, q))
		}
	}
	if len(qs) == 0 {
		return quantile(s.v, q)
	}
	return median(qs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// goCounters reads the runtime's allocation and GC cycle counters.
type goCounters struct{ allocs, gcs uint64 }

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return goCounters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// medianSetup runs build setups times and returns the last system built and
// the median set-up time in seconds. Earlier systems are released with
// discard before the next build.
func medianSetup[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var sys T
	var times []float64
	for i := range n {
		if i > 0 {
			discard(sys)
		}
		t0 := time.Now()
		var err error
		if sys, err = build(); err != nil {
			return sys, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return sys, median(times), nil
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

type check struct {
	name   string
	ok     bool
	detail string
}

// result is what one workload run reports.
type result struct {
	workload          string
	checks            []check
	attempted, failed uint64
	// e2e holds the contract's end-to-end metrics (untraced runs), layers the
	// per-layer metrics (traced runs), and report the workload's figures
	// under their descriptive names, printed as text.
	e2e, layers, report []metric
	recs                []*recorder
}

func (r *result) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, check{name, ok, detail})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

func (r *result) addReport(name string, v float64, unit string) {
	r.report = append(r.report, metric{name, v, unit})
}

// layerSet collects per-layer values by name; names never set read 0.
type layerSet map[string]float64

// spanLayers adds the trace-derived metrics shared by every workload: each
// layer's self time as a share of the root spans, and the share no layer
// covers.
func spanLayers(ls layerSet, ts traceSummary) {
	for l := layerUpdateBatch; l < numLayers; l++ {
		ls[selfMetric(l)] = 100 * ratio(ts.selfNs[l], ts.rootNs)
	}
	ls["unaccounted_pct"] = 100 * ratio(ts.uncoveredNs, ts.rootNs)
}

func selfMetric(l layer) string { return "self_pct." + layerNames[l] }
