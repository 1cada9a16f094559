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
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/netgen"
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
		ckpt     = flag.String("checkpoint", "", "dataplane mode: checkpoint store directory of the workers' merged engine snapshot (full checkpoints plus a delta journal), restored into worker 0 on start if present, written periodically and at exit; a single-file checkpoint at the path is adopted")
		ckptEvry = flag.Uint64("checkpoint-every", 1_000_000, "combined packets between checkpoint writes, checked every -watch-interval (0 = only at exit)")
		watch    = flag.Bool("watch", false, "log standing-query events (admitted/retired/updated HHH prefixes) while traffic runs")
		watchIvl = flag.Duration("watch-interval", 200*time.Millisecond, "standing-query tick interval (-watch); in dataplane mode also how often -checkpoint-every is checked")
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
	packets := buildPackets(*profile, 1<<18)

	if *workers < 1 {
		fatalf("-workers must be at least 1")
	}
	if *watchIvl <= 0 {
		fatalf("-watch-interval must be positive")
	}
	if *mode == "dataplane" {
		rep, err := runDataplane(dataplaneConfig{
			dom: dom, packets: packets, workers: *workers,
			epsilon: *epsilon, delta: *delta, v: v, seed: *seed, backend: engBackend,
			byBytes: *byBytes, theta: *theta, duration: *duration,
			watch: *watch, interval: *watchIvl, ckpt: *ckpt, ckptEvery: *ckptEvry,
			reg: reg, stop: ctx.Done(), out: os.Stdout, log: os.Stderr,
		})
		if err != nil {
			fatalf("%v", err)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "vswitchd: interrupted, draining")
		}
		var received, emcHits uint64
		for _, st := range rep.stats {
			received += st.Received
			emcHits += st.EMCHits
		}
		fmt.Printf("mode=dataplane workers=%d V=%d (H=%d) duration=%v\n", *workers, v, h, rep.elapsed.Round(time.Millisecond))
		fmt.Printf("throughput: %.2f Mpps (%d packets; emc hits %.1f%%)\n",
			float64(received)/rep.elapsed.Seconds()/1e6, received, 100*float64(emcHits)/float64(received))
		printHHH(dom, rep.hhh, rep.weight, *theta)
		return
	}
	if *workers > 1 {
		fatalf("-workers > 1 requires -mode dataplane")
	}

	var hook vswitch.Hook = vswitch.NopHook{}
	var report func()
	switch *mode {
	case "off":
		report = func() { fmt.Println("no measurement configured (-mode off)") }
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
			wp := &watchPrinter{out: os.Stdout, log: os.Stderr, dom: dom}
			w := col.Watch(*theta, 0, *watchIvl, func(d vswitch.CollectorDelta) {
				wp.print(d.Seq, d.N, d.Admitted, d.Retired, d.Updated)
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

// watchPrinter writes standing-query ticks to out. Each tick is rendered
// into one reused buffer and written with a single Write, so a tick of
// thousands of events costs one write instead of one per line. Not safe for
// concurrent use.
type watchPrinter struct {
	out, log io.Writer // events; a failed write
	dom      *hierarchy.Domain[uint64]
	buf      []byte
}

// print renders one standing-query delta: + admitted, - retired, ~ updated.
func (p *watchPrinter) print(seq, n uint64, admitted, retired, updated []core.Result[uint64]) {
	b := fmt.Appendf(p.buf[:0], "watch tick=%d N=%d: +%d -%d ~%d\n", seq, n, len(admitted), len(retired), len(updated))
	for _, r := range admitted {
		b = fmt.Appendf(b, "  + %-44s f in [%12.0f, %12.0f]\n", p.dom.Format(r.Key, r.Node), r.Lower, r.Upper)
	}
	for _, r := range retired {
		b = fmt.Appendf(b, "  - %s\n", p.dom.Format(r.Key, r.Node))
	}
	for _, r := range updated {
		b = fmt.Appendf(b, "  ~ %-44s f in [%12.0f, %12.0f]\n", p.dom.Format(r.Key, r.Node), r.Lower, r.Upper)
	}
	p.buf = b
	if _, err := p.out.Write(b); err != nil {
		fmt.Fprintf(p.log, "vswitchd: watch tick %d: %v\n", seq, err)
	}
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

// buildPackets prebuilds the workload: the chosen profile plus a DDoS
// aggregate on 203.0.113.0/24, so the final report has something
// interesting to show.
func buildPackets(profile string, n int) []trace.Packet {
	cfg := trace.Profile(profile)
	cfg.Aggregates = []trace.Aggregate{{
		Fraction: 0.15,
		Dst:      hierarchy.AddrFromIPv4(0xCB007100), // 203.0.113.0/24
		DstBits:  24,
		Spread:   1 << 15,
	}}
	return netgen.Prebuild(trace.NewSynthetic(cfg), n)
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
		wp := &watchPrinter{out: os.Stdout, log: os.Stderr, dom: cfg.dom}
		w := cfg.col.Watch(cfg.theta, 0, cfg.watchIvl, func(d vswitch.CollectorDelta) {
			wp.print(d.Seq, d.N, d.Admitted, d.Retired, d.Updated)
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
