// Command hhhd is the long-running hierarchical heavy hitters daemon: a
// sharded RHHH monitor fed by per-worker traffic sources, exposing the
// operational endpoints a deployment scrapes and queries:
//
//	GET /metrics   Prometheus text exposition of the full telemetry catalogue
//	GET /healthz   liveness plus the published N / convergence state
//	GET /query     heavy hitters as JSON (?theta= overrides the default)
//	GET /snapshot  the merged engine snapshot, binary (restorable, mergeable)
//	GET /watch     standing-query deltas as server-sent events
//
// The built-in feeder replays the synthetic CAIDA stand-in profiles, one
// independent source per worker — the self-contained mode CI smoke tests
// and load experiments use. With -n 0 the feeders run until shutdown.
//
// Profiling: -debug-addr serves net/http/pprof on a separate listener, kept
// off the operational port so scrapes never contend with profile captures.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rhhh"
	"rhhh/internal/hierarchy"
	"rhhh/internal/resilience"
	"rhhh/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9120", "HTTP listen address for the operational endpoints")
		debugAddr = flag.String("debug-addr", "", "optional listen address for net/http/pprof (empty = disabled)")
		workers   = flag.Int("workers", max(2, runtime.GOMAXPROCS(0)/2), "sharded ingest workers (one feeder goroutine each)")
		profile   = flag.String("profile", "chicago16", "synthetic profile: "+fmt.Sprint(trace.ProfileNames()))
		n         = flag.Uint64("n", 0, "total packets to feed (0 = run until shutdown)")
		rate      = flag.Uint64("rate", 0, "total feed rate in packets/second (0 = unthrottled)")
		dims      = flag.Int("dims", 2, "hierarchy dimensions: 1 or 2")
		gran      = flag.String("gran", "bytes", "granularity: bytes|nibbles|bits")
		epsilon   = flag.Float64("epsilon", 0.001, "estimation error ε")
		delta     = flag.Float64("delta", 0.001, "failure probability δ")
		theta     = flag.Float64("theta", 0.01, "default HHH threshold θ for /query and /watch")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		vParam    = flag.Int("v", 0, "RHHH performance parameter V (0 = H, e.g. 10*H for 10-RHHH)")
		backend   = flag.String("backend", "ss", "counter backend: ss (Space Saving stream-summary) or chk (Cuckoo Heavy Keeper)")

		queryLimit  = flag.Int("query-limit", 16, "max concurrent /query + /snapshot requests; excess shed with 503")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-request deadline on /query and /snapshot")
		watchWrite  = flag.Duration("watch-write-timeout", 5*time.Second, "per-write deadline on /watch SSE streams; slow clients are dropped")
		degradeLag  = flag.Duration("degrade-lag", 2*time.Second, "publication-age watermark engaging the adaptive-degrade ladder (0 = disabled)")
		degradeSamp = flag.Bool("degrade-sampling", false, "let the degrade ladder also thin feeder intake (weight-compensated) on top of widening publication cadence")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for crash-safe incremental checkpoints (empty = disabled)")
		ckptEvery   = flag.Duration("checkpoint-every", 5*time.Second, "interval between incremental checkpoints")
		ckptFullEvr = flag.Int("checkpoint-full-every", 16, "journal segments between full checkpoints")
		drainTO     = flag.Duration("drain-timeout", 10*time.Second, "hard deadline for the graceful shutdown sequence")
	)
	flag.Parse()
	if !slices.Contains(trace.ProfileNames(), *profile) {
		fatalf("unknown profile %q (want one of %s)", *profile, strings.Join(trace.ProfileNames(), ", "))
	}

	cfg := rhhh.Config{
		Dims:    *dims,
		Epsilon: *epsilon, Delta: *delta, Seed: *seed, V: *vParam,
	}
	switch *gran {
	case "bytes":
		cfg.Granularity = rhhh.Byte
	case "nibbles":
		cfg.Granularity = rhhh.Nibble
	case "bits":
		cfg.Granularity = rhhh.Bit
	default:
		fatalf("unknown granularity %q", *gran)
	}
	switch *backend {
	case "ss":
		cfg.Backend = rhhh.StreamSummary
	case "chk":
		cfg.Backend = rhhh.CuckooHeavyKeeper
	default:
		fatalf("unknown backend %q (want ss or chk)", *backend)
	}
	if *workers < 1 {
		fatalf("-workers must be positive")
	}

	mon, err := rhhh.NewSharded(cfg, *workers)
	if err != nil {
		fatalf("%v", err)
	}

	// Checkpointing: open the store and restore the last durable state
	// before any feeder runs (Restore requires the pre-producer window).
	var ckpt *rhhh.Checkpointer
	if *ckptDir != "" {
		store, err := resilience.OpenStore(*ckptDir, nil)
		if err != nil {
			fatalf("opening checkpoint store: %v", err)
		}
		ckpt = rhhh.NewCheckpointer(mon, store, *ckptFullEvr)
		restored, err := ckpt.Restore()
		if err != nil {
			fatalf("restoring checkpoint: %v", err)
		}
		if restored {
			gen, seq := store.Generation()
			fmt.Fprintf(os.Stderr, "hhhd: restored checkpoint generation %d (+%d segments), n=%d\n", gen, seq, mon.N())
		}
	}

	// Instrument before the feeders start: the per-worker hookup relies on
	// the goroutine-start happens-before edge (see Sharded.Instrument).
	srv := newServer(mon, *theta, serverOptions{
		queryLimit: *queryLimit,
		reqTimeout: *reqTimeout,
		watchWrite: *watchWrite,
		ckpt:       ckpt,
	})
	// Library-internal supervision (windowed merges, vswitch transports)
	// shares the daemon's counters and escalation hook.
	resilience.Default.Stats = srv.resPolicy.Stats
	resilience.Default.OnGiveUp = srv.resPolicy.OnGiveUp

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Feeders run supervised: a panic in the replay path is captured and
	// the feeder restarted with backoff instead of silently starving its
	// worker. fed ticks once per batch — the degrade controller's signal
	// that intake is active; thin > 1 makes feeders keep only every k-th
	// batch at weight k (unbiased, weight-compensated degrade sampling).
	var fed atomic.Uint64
	var thin atomic.Uint32
	feederDone := make([]<-chan struct{}, *workers)
	for i := 0; i < *workers; i++ {
		fc := feederConfig{
			profile: *profile,
			seed:    *seed + uint64(i)*0x9e3779b97f4a7c15,
			n:       perWorker(*n, *workers, i),
			rate:    *rate / uint64(*workers),
			fed:     &fed,
			thin:    &thin,
		}
		if *n != 0 && fc.n == 0 {
			// A bounded budget smaller than the worker count leaves this
			// feeder with nothing: don't start it — a zero share must not
			// read as "unlimited".
			done := make(chan struct{})
			close(done)
			feederDone[i] = done
			continue
		}
		w := mon.Worker(i)
		feederDone[i] = srv.resPolicy.Go(fmt.Sprintf("hhhd/feeder-%d", i), ctx.Done(), func() {
			feed(ctx, w, fc)
		})
	}

	// The degrade controller watches publication age while intake is
	// advancing and works the cadence levers when it crosses the watermark.
	degradeStop := make(chan struct{})
	degradeDone := startDegrade(srv, mon, degradeStop, *degradeLag, *degradeSamp, &fed, &thin)

	// The checkpoint loop writes an incremental checkpoint every interval;
	// failures are counted and retried next tick, never fatal.
	ckptStop := make(chan struct{})
	var ckptDone <-chan struct{}
	if ckpt != nil {
		ckptDone = srv.resPolicy.Go("hhhd/checkpoint", ckptStop, func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-tick.C:
					if _, err := ckpt.Checkpoint(); err != nil {
						fmt.Fprintf(os.Stderr, "hhhd: checkpoint: %v\n", err)
					}
				}
			}
		})
	}

	httpSrv := newHTTPServer(*addr, newMux(srv))
	go func() {
		fmt.Fprintf(os.Stderr, "hhhd: serving on http://%s (workers=%d profile=%s)\n", *addr, *workers, *profile)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatalf("%v", err)
		}
	}()
	if *debugAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			fmt.Fprintf(os.Stderr, "hhhd: pprof on http://%s/debug/pprof/\n", *debugAddr)
			if err := newHTTPServer(*debugAddr, mux).ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "hhhd: pprof server: %v\n", err)
			}
		}()
	}

	<-ctx.Done()
	// Graceful drain, under one hard deadline: stop intake and drain the
	// workers, write a final checkpoint of the quiesced state, then close
	// the HTTP surfaces (draining /healthz + ended /watch streams let the
	// load balancer and SSE clients move on immediately).
	fmt.Fprintln(os.Stderr, "hhhd: draining")
	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainTO)
	defer drainCancel()
	srv.beginDrain()
	drained := true
	for _, d := range feederDone {
		select {
		case <-d:
		case <-drainCtx.Done():
			drained = false
		}
		if !drained {
			fmt.Fprintln(os.Stderr, "hhhd: drain deadline hit; abandoning feeders")
			break
		}
	}
	close(degradeStop)
	<-degradeDone
	if ckpt != nil {
		close(ckptStop)
		// The final checkpoint needs the checkpoint loop to have actually
		// returned — Checkpointer is not concurrency-safe, and the loop may
		// still be inside a slow Checkpoint when the drain deadline fires —
		// so only proceed when <-ckptDone itself was observed.
		ckptIdle := false
		select {
		case <-ckptDone:
			ckptIdle = true
		case <-drainCtx.Done():
			fmt.Fprintln(os.Stderr, "hhhd: drain deadline hit waiting for checkpoint loop; skipping final checkpoint")
		}
		if drained && ckptIdle {
			// The workers are quiesced and synced: capture the final state.
			if _, err := ckpt.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "hhhd: final checkpoint: %v\n", err)
			}
		}
	}
	sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(sdCtx)
	_ = mon.Close()
}

// startDegrade runs the adaptive-degrade control loop on a supervised
// goroutine. Lag is defined as the monitor's maximum publication age, but
// only while intake is advancing (fed ticking) — an idle daemon publishes
// nothing and must not read as overloaded. Each level widens the
// publication cadence 2×; with sampling degrade enabled it also thins
// feeder intake (weight-compensated) by the same factor.
func startDegrade(srv *server, mon *rhhh.Sharded, stop <-chan struct{}, watermark time.Duration, sampling bool, fed *atomic.Uint64, thin *atomic.Uint32) <-chan struct{} {
	if watermark <= 0 {
		done := make(chan struct{})
		close(done)
		return done
	}
	srv.degrader.Watermark = watermark
	srv.degrader.OnChange = func(old, new int) {
		mon.SetPublishScale(1 << uint(new))
		if sampling {
			thin.Store(1 << uint(new))
		}
		// Reflect the ladder on /healthz, without clobbering failing or
		// draining states the supervisor/shutdown own: SetIf holds the
		// health mutex across check and transition, so a concurrent
		// escalation to failing can never be overwritten by a stale
		// ok/degraded write from this loop.
		if new > 0 {
			srv.health.SetIf(resilience.HealthDegraded, fmt.Sprintf("ingest lag over watermark: degrade level %d", new),
				resilience.HealthOK, resilience.HealthDegraded)
		} else {
			srv.health.SetIf(resilience.HealthOK, "",
				resilience.HealthOK, resilience.HealthDegraded)
		}
		fmt.Fprintf(os.Stderr, "hhhd: degrade level %d -> %d\n", old, new)
	}
	period := watermark / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	return srv.resPolicy.Go("hhhd/degrade", stop, func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		lastFed := fed.Load()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				cur := fed.Load()
				var lag time.Duration
				if cur != lastFed {
					lag = mon.MaxPublishAge(now)
				}
				lastFed = cur
				srv.degrader.Observe(now, lag)
			}
		}
	})
}

// perWorker splits a total packet budget across workers (worker 0 absorbs
// the remainder); 0 stays 0 (unlimited).
func perWorker(n uint64, workers, i int) uint64 {
	if n == 0 {
		return 0
	}
	share := n / uint64(workers)
	if i == 0 {
		share += n % uint64(workers)
	}
	return share
}

type feederConfig struct {
	profile string
	seed    uint64
	n       uint64 // 0 = unlimited
	rate    uint64 // packets/second for this feeder, 0 = unthrottled
	// fed ticks once per fed batch — the degrade controller's evidence
	// that intake is active. thin > 1 keeps only every thin-th batch, at
	// weight thin, so degraded estimates stay unbiased. Both may be nil.
	fed  *atomic.Uint64
	thin *atomic.Uint32
}

// feedBatch is the feeder's batch size: large enough to amortize the worker
// batch path, small enough for sub-millisecond rate-control granularity.
const feedBatch = 256

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so one that trickles them cannot hold a connection and its
// goroutine indefinitely. No write timeout is set: /watch streams are
// long-lived and bound each write themselves.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer builds hhhd's listeners (the operational port and the
// pprof port) with the header timeout.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// keepBatch reports whether the i-th generated batch (0-based) survives
// thinning factor k: the leader of every window of k consecutive batches is
// kept (fed at weight k, covering its k-1 dropped followers). The phase is
// a dedicated per-batch counter — deriving it from packet totals that mixed
// kept and skipped packets advanced it twice per skipped batch, wedging the
// k=2 ladder level into dropping every batch after the first skip.
func keepBatch(i, k uint64) bool { return k <= 1 || i%k == 0 }

// feed replays one synthetic source into one worker until the budget is
// spent or ctx is canceled, then publishes the worker's final state.
func feed(ctx context.Context, w *rhhh.Worker, fc feederConfig) {
	tc := trace.Profile(fc.profile)
	tc.Seed = fc.seed
	src := trace.NewSynthetic(tc)
	srcs := make([]netip.Addr, 0, feedBatch)
	dsts := make([]netip.Addr, 0, feedBatch)
	var weights []uint64
	var generated, batches uint64
	var interval time.Duration
	if fc.rate > 0 {
		interval = time.Duration(uint64(time.Second) * feedBatch / fc.rate)
	}
	next := time.Now()
	for ctx.Err() == nil && (fc.n == 0 || generated < fc.n) {
		batch := uint64(feedBatch)
		if fc.n != 0 && fc.n-generated < batch {
			batch = fc.n - generated
		}
		srcs, dsts = srcs[:0], dsts[:0]
		for range batch {
			p, ok := src.Next()
			if !ok {
				break
			}
			srcs = append(srcs, toNetip(p.SrcIP, p.V6))
			dsts = append(dsts, toNetip(p.DstIP, p.V6))
		}
		if len(srcs) == 0 {
			break
		}
		k := uint64(1)
		if fc.thin != nil {
			if t := fc.thin.Load(); t > 1 {
				k = uint64(t)
			}
		}
		switch {
		case !keepBatch(batches, k):
			// Degrade sampling: drop this batch; the kept batch leading its
			// window of k carries the dropped ones' weight so published
			// estimates stay unbiased.
		case k > 1:
			for len(weights) < len(srcs) {
				weights = append(weights, 0)
			}
			for i := range srcs {
				weights[i] = k
			}
			w.UpdateWeightedBatch(srcs, dsts, weights[:len(srcs)])
		default:
			w.UpdateBatch(srcs, dsts)
		}
		batches++
		generated += uint64(len(srcs))
		if fc.fed != nil {
			fc.fed.Add(1)
		}
		if interval > 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(d):
				}
			} else {
				next = time.Now() // fell behind; don't accumulate debt
			}
		}
	}
	w.Sync()
}

// toNetip converts the internal 128-bit address form to netip. IPv4
// addresses live in the top 32 bits (see hierarchy.AddrFromIPv4).
func toNetip(a hierarchy.Addr, v6 bool) netip.Addr {
	b := a.Bytes16()
	if v6 {
		return netip.AddrFrom16(b)
	}
	return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3]})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hhhd: "+format+"\n", args...)
	os.Exit(2)
}
