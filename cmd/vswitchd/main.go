// Command vswitchd runs the simulated virtual switch with a chosen HHH
// integration and reports throughput and the measured heavy hitters — an
// interactive version of the Figure 6–8 experiments.
//
// Examples:
//
//	vswitchd -mode dataplane -v 10 -duration 3s
//	vswitchd -mode distributed -udp -theta 0.05
//	vswitchd -mode off          # unmodified-switch baseline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/netgen"
	"rhhh/internal/resilience"
	"rhhh/internal/telemetry"
	"rhhh/internal/trace"
	"rhhh/internal/vswitch"
)

func main() {
	var (
		mode     = flag.String("mode", "dataplane", "integration: off|dataplane|distributed")
		vMult    = flag.Int("v", 1, "V as a multiple of H (1 = RHHH, 10 = 10-RHHH)")
		epsilon  = flag.Float64("epsilon", 0.001, "estimation error ε")
		delta    = flag.Float64("delta", 0.001, "failure probability δ")
		theta    = flag.Float64("theta", 0.02, "HHH threshold for the final report")
		duration = flag.Duration("duration", 2*time.Second, "how long to drive traffic")
		profile  = flag.String("profile", "chicago16", "traffic profile: "+fmt.Sprint(trace.ProfileNames()))
		udp      = flag.Bool("udp", false, "distributed mode: use loopback UDP instead of in-process transport")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		ckpt     = flag.String("checkpoint", "", "dataplane mode: engine snapshot checkpoint file, restored on start if present, written periodically and at exit")
		ckptEvry = flag.Uint64("checkpoint-every", 1_000_000, "packets between checkpoint writes (0 = only at exit)")
		watch    = flag.Bool("watch", false, "log standing-query events (admitted/retired/updated HHH prefixes) while traffic runs")
		watchEvy = flag.Uint64("watch-every", 500_000, "dataplane mode: packets between standing-query ticks")
		watchIvl = flag.Duration("watch-interval", 200*time.Millisecond, "distributed mode: collector tick interval")
		byBytes  = flag.Bool("bytes", false, "dataplane mode: weight updates by packet length (byte-count heavy hitters)")
		syncMode = flag.String("sync", "samples", "distributed mode: samples (per-sample stream) or delta (acked generation-delta reports)")
		repEvery = flag.Uint64("report-every", 1<<16, "delta sync: packets between reports")
		repTmo   = flag.Duration("report-timeout", 200*time.Millisecond, "delta sync: per-report ack timeout before retransmission")
		resyncEv = flag.Int("resync-every", 0, "delta sync: force a full report after this many deltas (0 = only when requested)")
		standby  = flag.Bool("collector-standby", false, "delta sync: fail over to a standby collector restored from a checkpoint at half the run")
		backend  = flag.String("backend", "ss", "counter backend: ss (Space Saving stream-summary) or chk (Cuckoo Heavy Keeper)")
		workers  = flag.Int("workers", 1, "dataplane mode: shared-nothing ingest workers (multi-queue RSS simulation; each owns a datapath and an engine, queries merge published snapshots)")
		metrics  = flag.String("metrics-addr", "", "optional listen address for Prometheus /metrics (empty = disabled)")
	)
	flag.Parse()
	if !slices.Contains(trace.ProfileNames(), *profile) {
		fatalf("unknown profile %q (want one of %s)", *profile, strings.Join(trace.ProfileNames(), ", "))
	}

	// SIGTERM/SIGINT drain the run gracefully: the drive loop stops at the
	// next pass boundary, then the normal exit path runs — final
	// checkpoint, report, transport teardown — instead of dying mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// reg stays nil (telemetry.Disabled) without -metrics-addr: every
	// Instrument call below is then a no-op and the hot paths keep their
	// uninstrumented branches.
	reg := telemetry.Disabled
	if *metrics != "" {
		reg = telemetry.NewRegistry()
		serveMetrics(*metrics, reg)
	}

	var engBackend core.Backend
	switch *backend {
	case "ss":
		engBackend = core.SpaceSavingBackend
	case "chk":
		engBackend = core.CHKBackend
	default:
		fatalf("unknown backend %q (want ss or chk)", *backend)
	}

	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	h := dom.Size()
	v := *vMult * h

	// Workload: the chosen profile plus a DDoS aggregate so the final
	// report has something interesting to show.
	cfg := trace.Profile(*profile)
	cfg.Aggregates = []trace.Aggregate{{
		Fraction: 0.15,
		Dst:      hierarchy.AddrFromIPv4(0xCB007100), // 203.0.113.0/24
		DstBits:  24,
		Spread:   1 << 15,
	}}
	packets := netgen.Prebuild(trace.NewSynthetic(cfg), 1<<18)

	if *workers < 1 {
		fatalf("-workers must be at least 1")
	}
	if *workers > 1 {
		if *mode != "dataplane" {
			fatalf("-workers > 1 requires -mode dataplane")
		}
		if *ckpt != "" {
			fatalf("-checkpoint is not supported with -workers > 1 (per-worker engines have no single restore point)")
		}
		runMultiQueue(multiQueueConfig{
			dom: dom, packets: packets, workers: *workers,
			epsilon: *epsilon, delta: *delta, v: v, seed: *seed, backend: engBackend,
			byBytes: *byBytes, theta: *theta, duration: *duration,
			watch: *watch, watchIvl: *watchIvl, reg: reg, stop: ctx.Done(),
		})
		return
	}

	var hook vswitch.Hook = vswitch.NopHook{}
	var report func()
	switch *mode {
	case "off":
		report = func() { fmt.Println("no measurement configured (-mode off)") }
	case "dataplane":
		eng := core.New(dom, core.Config{Epsilon: *epsilon, Delta: *delta, V: v, Seed: *seed, Backend: engBackend})
		if *ckpt != "" {
			if restored, err := restoreEngine(eng, *ckpt); err != nil {
				fatalf("restoring checkpoint: %v", err)
			} else if restored {
				fmt.Fprintf(os.Stderr, "vswitchd: restored N=%d from %s\n", eng.N(), *ckpt)
			}
		}
		engHook := vswitch.NewEngineHook(eng)
		if *byBytes {
			engHook = vswitch.NewEngineHookBytes(eng)
		}
		if *ckpt != "" && *ckptEvry > 0 {
			hook = &checkpointHook{EngineHook: engHook, eng: eng, path: *ckpt, every: *ckptEvry, next: eng.N() + *ckptEvry}
		} else {
			hook = engHook
		}
		if *watch {
			if *watchEvy == 0 {
				fatalf("-watch-every must be positive")
			}
			hook = &watchLogHook{
				inner: hook, eng: eng, dom: dom, theta: *theta,
				every: *watchEvy, next: eng.N() + *watchEvy,
				differ: core.NewDiffer[uint64](),
			}
		}
		if reg != nil {
			st := &telemetry.EngineStats{}
			st.Register(reg, "")
			hook = &telemetryHook{
				inner: hook, eng: eng, st: st,
				every: mqPublishEvery, next: eng.N() + mqPublishEvery,
			}
		}
		report = func() {
			if *ckpt != "" {
				if err := writeEngineCheckpoint(eng, *ckpt); err != nil {
					fatalf("writing checkpoint: %v", err)
				}
			}
			printHHH(dom, eng.Output(*theta), eng.Weight(), *theta)
		}
	case "distributed":
		col := vswitch.NewCollector(dom, *epsilon, *delta, v)
		col.Instrument(reg)
		if *syncMode == "delta" {
			hook, report = setupDeltaSync(deltaSyncConfig{
				dom: dom, col: col, v: v,
				epsilon: *epsilon, delta: *delta, theta: *theta,
				udp: *udp, seed: *seed,
				every: *repEvery, timeout: *repTmo, resyncEvery: *resyncEv,
				standby: *standby, failAfter: *duration / 2,
				watch: *watch, watchIvl: *watchIvl,
				backend: engBackend, reg: reg,
			})
			break
		}
		if *syncMode != "samples" {
			fatalf("unknown -sync mode %q (want samples or delta)", *syncMode)
		}
		var tr vswitch.Transport
		if *udp {
			srv, err := vswitch.ListenUDP("127.0.0.1:0", col)
			if err != nil {
				fatalf("udp listen: %v", err)
			}
			defer srv.Close()
			utr, err := vswitch.DialUDP(srv.Addr())
			if err != nil {
				fatalf("udp dial: %v", err)
			}
			defer utr.Close()
			tr = utr
			fmt.Fprintf(os.Stderr, "collector listening on %s\n", srv.Addr())
		} else {
			itr := vswitch.NewInProcTransport(col, 1024)
			defer itr.Close()
			tr = itr
		}
		sh := vswitch.NewSamplerHook(dom, v, *seed, tr, 0)
		hook = sh
		if *watch {
			w := col.Watch(*theta, 0, *watchIvl, func(d vswitch.CollectorDelta) {
				printWatchEvents(dom, d.Seq, d.N, d.Admitted, d.Retired, d.Updated)
			})
			defer w.Close()
		}
		report = func() {
			if err := sh.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "vswitchd: transport error: %v\n", err)
			}
			// Give an async transport a moment to drain.
			time.Sleep(50 * time.Millisecond)
			fmt.Printf("collector: packets=%d samples=%d\n", col.Packets(), col.Updates())
			printHHH(dom, col.Output(*theta), col.Packets(), *theta)
		}
	default:
		fatalf("unknown mode %q", *mode)
	}

	var ft vswitch.FlowTable
	ft.Add(vswitch.Rule{Priority: 0, Match: vswitch.Match{}, Action: vswitch.Action{OutPort: 1}})
	dp := vswitch.NewDatapath(&ft, vswitch.NewEMC(8192, *seed), hook)

	res := netgen.RunForStop(packets, *duration, ctx.Done(), func(p trace.Packet) { dp.Process(p) })
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "vswitchd: interrupted, draining")
	}
	st := dp.Stats()
	fmt.Printf("mode=%s V=%d (H=%d) duration=%v\n", *mode, v, h, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.2f Mpps (%d packets; emc hits %.1f%%)\n",
		res.Mpps(), st.Received, 100*float64(st.EMCHits)/float64(st.Received))
	report()
}

// multiQueueConfig carries the -workers > 1 dataplane wiring.
type multiQueueConfig struct {
	dom            *hierarchy.Domain[uint64]
	packets        []trace.Packet
	workers        int
	epsilon, delta float64
	v              int
	seed           uint64
	backend        core.Backend
	byBytes        bool
	theta          float64
	duration       time.Duration
	watch          bool
	watchIvl       time.Duration
	reg            *telemetry.Registry
	stop           <-chan struct{} // graceful drain: ends the drive early
}

// mqPublishEvery is the per-worker publication cadence in packets — the same
// default the library's Sharded workers use: cheap enough to amortize to
// ~a nanosecond per packet, frequent enough that reports lag ingest by well
// under a millisecond at dataplane rates.
const mqPublishEvery = 16384

// mqWorker is one multi-queue ingest worker: a private datapath (own EMC
// over the shared flow table) feeding a private RHHH engine, publishing
// immutable epoch-versioned snapshots through an atomic cell. The report and
// watch sides only ever load published snapshots — no lock is ever taken
// against a worker.
type mqWorker struct {
	eng  *core.Engine[uint64]
	dp   *vswitch.Datapath
	pkts []trace.Packet
	cell atomic.Pointer[core.EngineSnapshot[uint64]]
	prev *core.EngineSnapshot[uint64] // producer-goroutine only
	tm   *telemetry.EngineStats       // nil without -metrics-addr
}

// publish captures the engine into a fresh immutable epoch (sharing
// unchanged node buffers with the previous one) and makes it the worker's
// published snapshot. Producer-goroutine only. Telemetry rides the same
// cadence: counters are owner-plain on the hot path and only stored to the
// scrape-visible cells here.
func (w *mqWorker) publish() {
	w.prev = w.eng.PublishSnapshot(w.prev)
	w.cell.Store(w.prev)
	if w.tm != nil {
		w.eng.TelemetryInto(w.tm)
	}
}

// mqPublishHook wraps the engine hook with the publication cadence.
type mqPublishHook struct {
	*vswitch.EngineHook
	w    *mqWorker
	next uint64
}

func (h *mqPublishHook) OnPacket(p trace.Packet) {
	h.EngineHook.OnPacket(p)
	h.maybePublish()
}

func (h *mqPublishHook) OnBatch(ps []trace.Packet) {
	h.EngineHook.OnBatch(ps)
	h.maybePublish()
}

func (h *mqPublishHook) maybePublish() {
	if h.w.eng.N() < h.next {
		return
	}
	for h.next <= h.w.eng.N() {
		h.next += mqPublishEvery
	}
	h.w.publish()
}

// rssPartition splits the prebuilt packets onto n queues by flow hash, the
// way NIC receive-side scaling pins a flow to one queue: every packet of a
// flow lands on the same worker, so per-worker streams are disjoint
// sub-streams and the merged result is exact.
func rssPartition(packets []trace.Packet, n int) [][]trace.Packet {
	parts := make([][]trace.Packet, n)
	per := len(packets)/n + 1
	for i := range parts {
		parts[i] = make([]trace.Packet, 0, per)
	}
	for _, p := range packets {
		q := (p.Key2() * 0x9e3779b97f4a7c15) >> 32 % uint64(n)
		parts[q] = append(parts[q], p)
	}
	return parts
}

// mqLoadSnaps loads every worker's latest published snapshot.
func mqLoadSnaps(ws []*mqWorker, dst []*core.EngineSnapshot[uint64]) []*core.EngineSnapshot[uint64] {
	dst = dst[:0]
	for _, w := range ws {
		dst = append(dst, w.cell.Load())
	}
	return dst
}

// runMultiQueue is the shared-nothing dataplane: one ingest goroutine per
// worker drives its RSS partition through a private datapath and engine for
// the configured duration, while the optional -watch ticker and the final
// report merge the workers' published snapshots with a core.SnapshotMerger —
// never pausing or locking a producer.
func runMultiQueue(cfg multiQueueConfig) {
	var ft vswitch.FlowTable
	ft.Add(vswitch.Rule{Priority: 0, Match: vswitch.Match{}, Action: vswitch.Action{OutPort: 1}})

	parts := rssPartition(cfg.packets, cfg.workers)
	ws := make([]*mqWorker, cfg.workers)
	for i := range ws {
		eng := core.New(cfg.dom, core.Config{
			Epsilon: cfg.epsilon, Delta: cfg.delta, V: cfg.v,
			Seed: cfg.seed + uint64(i)*0x9e3779b97f4a7c15, Backend: cfg.backend,
		})
		engHook := vswitch.NewEngineHook(eng)
		if cfg.byBytes {
			engHook = vswitch.NewEngineHookBytes(eng)
		}
		w := &mqWorker{eng: eng, pkts: parts[i]}
		if cfg.reg != nil {
			w.tm = &telemetry.EngineStats{}
			w.tm.Register(cfg.reg, fmt.Sprintf(`{worker="%d"}`, i))
		}
		w.dp = vswitch.NewDatapath(&ft, vswitch.NewEMC(8192, cfg.seed+uint64(i)), &mqPublishHook{
			EngineHook: engHook, w: w, next: mqPublishEvery,
		})
		w.publish() // epoch 0: readers always find a snapshot
		ws[i] = w
	}

	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	if cfg.watch {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			var (
				sm     core.SnapshotMerger[uint64]
				merged core.EngineSnapshot[uint64]
				snaps  []*core.EngineSnapshot[uint64]
				seq    uint64
			)
			differ := core.NewDiffer[uint64]()
			t := time.NewTicker(cfg.watchIvl)
			defer t.Stop()
			for {
				select {
				case <-watchDone:
					return
				case <-t.C:
					snaps = mqLoadSnaps(ws, snaps)
					m := sm.Merge(&merged, snaps...)
					seq++
					if d := differ.Diff(m.Output(cfg.dom, cfg.theta), 0); !d.Empty() {
						printWatchEvents(cfg.dom, seq, m.Weight, d.Admitted, d.Retired, d.Updated)
					}
				}
			}
		}()
	}

	results := make([]netgen.Result, cfg.workers)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *mqWorker) {
			defer wg.Done()
			results[i] = netgen.RunForStop(w.pkts, cfg.duration, cfg.stop, func(p trace.Packet) { w.dp.Process(p) })
			w.publish() // final sync: everything absorbed becomes visible
		}(i, w)
	}
	wg.Wait()
	close(watchDone)
	watchWG.Wait()

	var total netgen.Result
	var received, emcHits uint64
	for i, w := range ws {
		total.Packets += results[i].Packets
		if results[i].Elapsed > total.Elapsed {
			total.Elapsed = results[i].Elapsed
		}
		st := w.dp.Stats()
		received += st.Received
		emcHits += st.EMCHits
	}
	fmt.Printf("mode=dataplane workers=%d V=%d (H=%d) duration=%v\n",
		cfg.workers, cfg.v, cfg.dom.Size(), total.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.2f Mpps aggregate (%d packets; emc hits %.1f%%)\n",
		total.Mpps(), received, 100*float64(emcHits)/float64(received))

	var sm core.SnapshotMerger[uint64]
	m := sm.Merge(nil, mqLoadSnaps(ws, nil)...)
	printHHH(cfg.dom, m.Output(cfg.dom, cfg.theta), m.Weight, cfg.theta)
}

// watchLogHook wraps the dataplane hook with a packet-count-driven standing
// query: every `every` packets it diffs the engine's HHH set against the
// previous tick and logs only the changes — the -watch event-log mode.
type watchLogHook struct {
	inner  vswitch.Hook
	eng    *core.Engine[uint64]
	dom    *hierarchy.Domain[uint64]
	theta  float64
	every  uint64
	next   uint64
	differ *core.Differ[uint64]
	seq    uint64
}

func (h *watchLogHook) OnPacket(p trace.Packet) {
	h.inner.OnPacket(p)
	h.maybeTick()
}

func (h *watchLogHook) OnBatch(ps []trace.Packet) {
	if bh, ok := h.inner.(vswitch.BatchHook); ok {
		bh.OnBatch(ps)
	} else {
		for _, p := range ps {
			h.inner.OnPacket(p)
		}
	}
	h.maybeTick()
}

func (h *watchLogHook) maybeTick() {
	if h.eng.N() < h.next {
		return
	}
	for h.next <= h.eng.N() {
		h.next += h.every
	}
	h.seq++
	d := h.differ.Diff(h.eng.Output(h.theta), 0)
	if d.Empty() {
		return
	}
	printWatchEvents(h.dom, h.seq, h.eng.Weight(), d.Admitted, d.Retired, d.Updated)
}

// printWatchEvents renders one standing-query delta: + admitted, - retired,
// ~ updated.
func printWatchEvents(dom *hierarchy.Domain[uint64], seq, n uint64, admitted, retired, updated []core.Result[uint64]) {
	fmt.Printf("watch tick=%d N=%d: +%d -%d ~%d\n", seq, n, len(admitted), len(retired), len(updated))
	for _, r := range admitted {
		fmt.Printf("  + %-44s f in [%12.0f, %12.0f]\n", dom.Format(r.Key, r.Node), r.Lower, r.Upper)
	}
	for _, r := range retired {
		fmt.Printf("  - %s\n", dom.Format(r.Key, r.Node))
	}
	for _, r := range updated {
		fmt.Printf("  ~ %-44s f in [%12.0f, %12.0f]\n", dom.Format(r.Key, r.Node), r.Lower, r.Upper)
	}
}

// telemetryHook wraps the dataplane hook chain with a packet-count-driven
// telemetry publication: every `every` packets it stores the engine's plain
// counters into the scrape-visible cells, keeping the per-packet cost to one
// branch on N.
type telemetryHook struct {
	inner vswitch.Hook
	eng   *core.Engine[uint64]
	st    *telemetry.EngineStats
	every uint64
	next  uint64
}

func (h *telemetryHook) OnPacket(p trace.Packet) {
	h.inner.OnPacket(p)
	h.maybePublish()
}

func (h *telemetryHook) OnBatch(ps []trace.Packet) {
	if bh, ok := h.inner.(vswitch.BatchHook); ok {
		bh.OnBatch(ps)
	} else {
		for _, p := range ps {
			h.inner.OnPacket(p)
		}
	}
	h.maybePublish()
}

func (h *telemetryHook) maybePublish() {
	if h.eng.N() < h.next {
		return
	}
	for h.next <= h.eng.N() {
		h.next += h.every
	}
	h.eng.TelemetryInto(h.st)
}

// serveMetrics starts the Prometheus exposition listener in the background:
// vswitchd's datapath loops are synchronous, so the scrape surface gets its
// own goroutine for the lifetime of the process.
func serveMetrics(addr string, reg *telemetry.Registry) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Header/write timeouts bound what a stuck or malicious scraper can
	// hold: the exposition is small, so generous limits are still tight.
	srv := &http.Server{
		Addr: addr, Handler: mux,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      10 * time.Second,
	}
	go func() {
		fmt.Fprintf(os.Stderr, "vswitchd: metrics on http://%s/metrics\n", addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "vswitchd: metrics server: %v\n", err)
		}
	}()
}

// checkpointHook wraps the dataplane EngineHook with periodic snapshot
// checkpoints, so long measurements survive a restart (restore with the
// same -checkpoint flag).
type checkpointHook struct {
	*vswitch.EngineHook
	eng   *core.Engine[uint64]
	path  string
	every uint64
	next  uint64
}

func (h *checkpointHook) OnPacket(p trace.Packet) {
	h.EngineHook.OnPacket(p)
	h.maybeCheckpoint()
}

func (h *checkpointHook) OnBatch(ps []trace.Packet) {
	h.EngineHook.OnBatch(ps)
	h.maybeCheckpoint()
}

func (h *checkpointHook) maybeCheckpoint() {
	if h.eng.N() < h.next {
		return
	}
	if err := writeEngineCheckpoint(h.eng, h.path); err != nil {
		fatalf("writing checkpoint: %v", err)
	}
	for h.next <= h.eng.N() {
		h.next += h.every
	}
}

// restoreEngine loads an engine snapshot checkpoint; a missing file is a
// fresh start, not an error.
func restoreEngine(eng *core.Engine[uint64], path string) (bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	es, rest, err := core.DecodeEngineSnapshot[uint64](data)
	if err != nil {
		return false, err
	}
	if len(rest) != 0 {
		return false, fmt.Errorf("%d trailing bytes in checkpoint", len(rest))
	}
	if err := eng.LoadSnapshot(es); err != nil {
		return false, err
	}
	return true, nil
}

// writeEngineCheckpoint atomically replaces the checkpoint file: fsynced
// temp write, rename, directory sync — the same durability discipline as
// the resilience checkpoint store, so a crash (or power loss) mid-write
// never costs the last good checkpoint.
func writeEngineCheckpoint(eng *core.Engine[uint64], path string) error {
	var es core.EngineSnapshot[uint64]
	eng.SnapshotInto(&es)
	data, err := es.AppendBinary(nil)
	if err != nil {
		return err
	}
	fsys := resilience.OSFS{}
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

func printHHH(dom *hierarchy.Domain[uint64], out []core.Result[uint64], n uint64, theta float64) {
	// Copy before sorting: Output returns a reusable query buffer.
	out = slices.Clone(out)
	sort.Slice(out, func(i, j int) bool { return out[i].Upper > out[j].Upper })
	fmt.Printf("hierarchical heavy hitters (theta=%g, N=%d):\n", theta, n)
	for _, p := range out {
		fmt.Printf("  %-44s f in [%12.0f, %12.0f]\n", dom.Format(p.Key, p.Node), p.Lower, p.Upper)
	}
	if len(out) == 0 {
		fmt.Println("  (none)")
	}
}

// deltaSyncConfig carries the -sync delta wiring options.
type deltaSyncConfig struct {
	dom            *hierarchy.Domain[uint64]
	col            *vswitch.Collector
	v              int
	epsilon, delta float64
	theta          float64
	udp            bool
	seed           uint64
	every          uint64
	timeout        time.Duration
	resyncEvery    int
	standby        bool
	failAfter      time.Duration
	watch          bool
	watchIvl       time.Duration
	backend        core.Backend
	reg            *telemetry.Registry
}

// setupDeltaSync wires the fault-tolerant acked report protocol: a local RHHH
// engine on the switch, generation-delta reports to the collector (UDP or an
// in-process link), and optionally a mid-run fail-over to a standby collector
// restored from a checkpoint (-collector-standby).
func setupDeltaSync(cfg deltaSyncConfig) (vswitch.Hook, func()) {
	eng := core.New(cfg.dom, core.Config{Epsilon: cfg.epsilon, Delta: cfg.delta, V: cfg.v, Seed: cfg.seed, Backend: cfg.backend})
	var (
		colMu sync.Mutex
		live  = cfg.col
	)
	var (
		tr      vswitch.ReportTransport
		redial  func(*vswitch.Collector) error
		cleanup func()
	)
	if cfg.udp {
		srv, err := vswitch.ListenUDP("127.0.0.1:0", cfg.col)
		if err != nil {
			fatalf("udp listen: %v", err)
		}
		utr, err := vswitch.DialUDPReport(srv.Addr())
		if err != nil {
			fatalf("udp dial: %v", err)
		}
		fmt.Fprintf(os.Stderr, "collector listening on %s\n", srv.Addr())
		tr = utr
		redial = func(sb *vswitch.Collector) error {
			srv2, err := vswitch.ListenUDP("127.0.0.1:0", sb)
			if err != nil {
				return err
			}
			srv.Close()
			srv = srv2
			fmt.Fprintf(os.Stderr, "standby collector listening on %s\n", srv2.Addr())
			return utr.Redial(srv2.Addr())
		}
		cleanup = func() {
			utr.Close()
			srv.Close()
		}
	} else {
		link := vswitch.NewCollectorLink(cfg.col, vswitch.FaultConfig{Seed: cfg.seed}, vswitch.FaultConfig{Seed: cfg.seed + 1})
		link.StartPump(time.Millisecond)
		tr = link
		redial = func(sb *vswitch.Collector) error {
			link.SetCollector(sb)
			return nil
		}
		cleanup = func() { link.Close() }
	}
	rep := vswitch.NewDeltaReporter(eng, tr, 1, vswitch.ReporterOptions{
		Every: cfg.every, ResyncEvery: cfg.resyncEvery, Timeout: cfg.timeout, Seed: cfg.seed,
	})
	rep.Instrument(cfg.reg)
	if cfg.watch {
		if cfg.standby {
			fatalf("-watch cannot follow the collector across -collector-standby fail-over")
		}
		w := cfg.col.Watch(cfg.theta, 0, cfg.watchIvl, func(d vswitch.CollectorDelta) {
			printWatchEvents(cfg.dom, d.Seq, d.N, d.Admitted, d.Retired, d.Updated)
		})
		prev := cleanup
		cleanup = func() {
			w.Close()
			prev()
		}
	}
	if cfg.standby {
		timer := time.AfterFunc(cfg.failAfter, func() {
			colMu.Lock()
			defer colMu.Unlock()
			ckpt, err := live.AppendCheckpoint(nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vswitchd: checkpoint: %v\n", err)
				return
			}
			sb := vswitch.NewCollector(cfg.dom, cfg.epsilon, cfg.delta, cfg.v)
			if err := sb.Restore(ckpt); err != nil {
				fmt.Fprintf(os.Stderr, "vswitchd: standby restore: %v\n", err)
				return
			}
			if err := redial(sb); err != nil {
				fmt.Fprintf(os.Stderr, "vswitchd: standby redial: %v\n", err)
				return
			}
			live = sb
			fmt.Fprintf(os.Stderr, "vswitchd: failed over to standby collector (%d byte checkpoint, epoch %d)\n",
				len(ckpt), sb.Epoch())
		})
		prev := cleanup
		cleanup = func() {
			timer.Stop()
			prev()
		}
	}
	report := func() {
		if err := rep.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "vswitchd: report error: %v\n", err)
		}
		if !rep.WaitSynced(2 * time.Second) {
			fmt.Fprintf(os.Stderr, "vswitchd: reporter did not reach sync before the deadline\n")
		}
		colMu.Lock()
		c := live
		colMu.Unlock()
		rst := rep.Stats()
		fmt.Printf("reporter: reports=%d (full=%d delta=%d) bytes full/delta=%d/%d retransmits=%d resyncs=%d superseded=%d\n",
			rst.Reports, rst.FullReports, rst.DeltaReports, rst.FullBytes, rst.DeltaBytes,
			rst.Retransmits, rst.Resyncs, rst.Superseded)
		cst := c.Stats()
		fmt.Printf("collector: epoch=%d packets=%d full=%d delta=%d stale=%d resyncReq=%d decodeErr=%d failovers=%d\n",
			c.Epoch(), c.Packets(), cst.FullReports, cst.DeltaReports, cst.StaleReports,
			cst.ResyncRequests, cst.DecodeErrors, cst.Failovers)
		for _, si := range c.Senders() {
			fmt.Printf("  sender %d: boot=%d seq=%d packets=%d staleness=%d dropped=%d\n",
				si.Sender, si.Boot, si.LastSeq, si.Packets, si.Staleness, si.Dropped)
		}
		printHHH(cfg.dom, c.Output(cfg.theta), c.Packets(), cfg.theta)
		cleanup()
	}
	return rep, report
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vswitchd: "+format+"\n", args...)
	os.Exit(2)
}
