// Command hhh runs RHHH over a pcap file or a synthetic trace and prints the
// HHH set. The paper's deterministic baselines (MST and the ancestry tries)
// run in cmd/hhhbench (-fig 4, 5 and 6).
//
// Examples:
//
//	hhh -pcap capture.pcap -dims 2 -theta 0.01
//	hhh -profile chicago16 -n 5000000 -dims 1 -gran bits -algo 10-rhhh
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"rhhh"
	"rhhh/internal/hierarchy"
	"rhhh/internal/resilience"
	"rhhh/internal/telemetry"
	"rhhh/internal/trace"
)

func main() {
	var (
		pcapPath = flag.String("pcap", "", "pcap file to replay (classic format)")
		profile  = flag.String("profile", "chicago16", "synthetic profile when no pcap is given: "+fmt.Sprint(trace.ProfileNames()))
		n        = flag.Uint64("n", 1_000_000, "packets to process from the synthetic source")
		dims     = flag.Int("dims", 2, "hierarchy dimensions: 1 (source) or 2 (source x destination)")
		gran     = flag.String("gran", "bytes", "granularity: bytes|nibbles|bits")
		v6       = flag.Bool("ipv6", false, "use 128-bit hierarchies")
		algo     = flag.String("algo", "rhhh", "algorithm: rhhh (V = H) or 10-rhhh (V = 10·H)")
		epsilon  = flag.Float64("epsilon", 0.001, "estimation error ε")
		delta    = flag.Float64("delta", 0.001, "failure probability δ")
		theta    = flag.Float64("theta", 0.01, "HHH threshold θ")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		weighted = flag.Bool("bytes", false, "weight packets by byte count instead of counting packets")
		ckpt     = flag.String("checkpoint", "", "snapshot checkpoint file: restored on start if present, written periodically and at exit")
		ckptEvry = flag.Uint64("checkpoint-every", 1_000_000, "packets between checkpoint writes (0 = only at exit)")
		watch    = flag.Bool("watch", false, "log standing-query events (admitted/retired/updated HHH prefixes) during replay")
		watchEvy = flag.Uint64("watch-every", 100_000, "packets between standing-query ticks")
		watchK   = flag.Int("watch-k", 0, "auto-tune the watch threshold to track the top k keys instead of -theta")
		backend  = flag.String("backend", "ss", "counter backend: ss (Space Saving stream-summary) or chk (Cuckoo Heavy Keeper)")
		metrics  = flag.String("metrics-addr", "", "optional listen address for Prometheus /metrics during the replay (empty = disabled)")
	)
	flag.Parse()
	if *pcapPath == "" && !slices.Contains(trace.ProfileNames(), *profile) {
		fatalf("unknown profile %q (want one of %s)", *profile, strings.Join(trace.ProfileNames(), ", "))
	}

	cfg := rhhh.Config{
		Dims: *dims, IPv6: *v6,
		Epsilon: *epsilon, Delta: *delta, Seed: *seed,
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
	if *algo != "rhhh" && *algo != "10-rhhh" {
		fatalf("unknown algorithm %q (want rhhh or 10-rhhh; hhhbench -fig 4|5|6 runs the MST and ancestry baselines)", *algo)
	}
	switch *backend {
	case "ss":
		cfg.Backend = rhhh.StreamSummary
	case "chk":
		cfg.Backend = rhhh.CuckooHeavyKeeper
	default:
		fatalf("unknown backend %q (want ss or chk)", *backend)
	}
	if *algo == "10-rhhh" {
		// Build a probe monitor to learn H, then rebuild with V=10H.
		probe, err := rhhh.New(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.V = 10 * probe.H()
	}
	mon, err := rhhh.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if *ckpt != "" {
		if restored, err := restoreCheckpoint(mon, *ckpt); err != nil {
			fatalf("restoring checkpoint: %v", err)
		} else if restored {
			fmt.Fprintf(os.Stderr, "hhh: restored N=%d from %s\n", mon.N(), *ckpt)
		}
	}

	if *metrics != "" {
		reg := telemetry.NewRegistry()
		mon.Instrument(reg)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = reg.WritePrometheus(w)
		})
		go func() {
			fmt.Fprintf(os.Stderr, "hhh: metrics on http://%s/metrics\n", *metrics)
			srv := &http.Server{Addr: *metrics, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
			if err := srv.ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "hhh: metrics server: %v\n", err)
			}
		}()
	}

	if *watch {
		if *watchEvy == 0 {
			fatalf("-watch-every must be positive")
		}
		opts := rhhh.WatchOptions{Theta: *theta, OnDelta: printWatchDelta}
		if *watchK > 0 {
			opts.Theta, opts.AutoThetaK = 0, *watchK
		}
		if _, err := mon.Watch(opts); err != nil {
			fatalf("%v", err)
		}
	}

	var src trace.Source
	if *pcapPath != "" {
		f, err := os.Open(*pcapPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r, err := trace.NewPcapReader(f)
		if err != nil {
			fatalf("%v", err)
		}
		src = r
	} else {
		src = &trace.Limit{Src: trace.NewSynthetic(trace.Profile(*profile)), N: *n}
	}

	// SIGINT/SIGTERM end the replay early but cleanly: the loop breaks at
	// the next signal check, then the normal exit path runs — final tick,
	// final checkpoint, results printout — so an interrupted replay still
	// leaves a durable checkpoint and a report.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)

	var count uint64
	var snapBuf *rhhh.Snapshot
replay:
	for {
		if count%4096 == 0 {
			select {
			case <-sigC:
				fmt.Fprintln(os.Stderr, "hhh: interrupted, draining")
				break replay
			default:
			}
		}
		p, ok := src.Next()
		if !ok {
			break
		}
		srcA, dstA := p.SrcIP, p.DstIP
		if p.V6 != *v6 {
			continue // family mismatch with the configured hierarchy
		}
		saddr := toNetip(srcA, *v6)
		daddr := toNetip(dstA, *v6)
		if *weighted {
			mon.UpdateWeighted(saddr, daddr, uint64(max(p.Length, 1)))
		} else {
			mon.Update(saddr, daddr)
		}
		count++
		if *watch && count%*watchEvy == 0 {
			mon.Tick()
		}
		if *ckpt != "" && *ckptEvry > 0 && count%*ckptEvry == 0 {
			snapBuf = mon.SnapshotInto(snapBuf)
			if err := writeCheckpoint(snapBuf, *ckpt); err != nil {
				fatalf("writing checkpoint: %v", err)
			}
		}
	}
	if *watch {
		mon.Tick() // deliver the stream's final deltas
	}
	if *ckpt != "" {
		snapBuf = mon.SnapshotInto(snapBuf)
		if err := writeCheckpoint(snapBuf, *ckpt); err != nil {
			fatalf("writing checkpoint: %v", err)
		}
	}

	fmt.Printf("algorithm=%s backend=%s H=%d V=%d packets=%d N=%d psi=%.3g converged=%v\n",
		*algo, cfg.Backend, mon.H(), mon.V(), count, mon.N(), mon.Psi(), mon.Converged())
	// Copy before sorting: HeavyHitters returns the monitor's reusable
	// query buffer.
	hits := slices.Clone(mon.HeavyHitters(*theta))
	sort.Slice(hits, func(i, j int) bool { return hits[i].Upper > hits[j].Upper })
	fmt.Printf("hierarchical heavy hitters (theta=%g, threshold=%.0f):\n",
		*theta, *theta*float64(mon.N()))
	for _, h := range hits {
		share := h.Upper / float64(mon.N()) * 100
		fmt.Printf("  %-44s f in [%12.0f, %12.0f]  (<= %5.2f%%)  level %d\n",
			h.Text, h.Lower, h.Upper, share, h.Level)
	}
	if len(hits) == 0 {
		fmt.Println("  (none above threshold)")
	}
}

// printWatchDelta renders one standing-query event: only the changes, with
// + for admitted, - for retired and ~ for updated prefixes.
func printWatchDelta(d rhhh.Delta) {
	fmt.Printf("watch tick=%d N=%d theta=%.4g: +%d -%d ~%d\n",
		d.Seq, d.N, d.Theta, len(d.Admitted), len(d.Retired), len(d.Updated))
	for _, h := range d.Admitted {
		fmt.Printf("  + %s\n", h)
	}
	for _, h := range d.Retired {
		fmt.Printf("  - %s\n", h.Text)
	}
	for _, h := range d.Updated {
		fmt.Printf("  ~ %s\n", h)
	}
}

// toNetip converts the internal 128-bit address form back to netip. IPv4
// addresses live in the top 32 bits (see hierarchy.AddrFromIPv4).
func toNetip(a hierarchy.Addr, v6 bool) netip.Addr {
	b := a.Bytes16()
	if v6 {
		return netip.AddrFrom16(b)
	}
	return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3]})
}

// restoreCheckpoint loads a checkpoint file into the monitor; a missing file
// is a fresh start, not an error.
func restoreCheckpoint(mon *rhhh.Monitor, path string) (bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var snap rhhh.Snapshot
	if err := snap.UnmarshalBinary(data); err != nil {
		return false, err
	}
	if err := mon.LoadSnapshot(&snap); err != nil {
		return false, err
	}
	return true, nil
}

// writeCheckpoint atomically replaces the checkpoint file: fsynced temp
// write, rename, directory sync, so a crash or power loss mid-write never
// corrupts — or silently drops — the last good checkpoint.
func writeCheckpoint(snap *rhhh.Snapshot, path string) error {
	data, err := snap.MarshalBinary()
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

// readHeaderTimeout bounds how long a scraper may take to send its request
// headers, so one that trickles them cannot hold a connection and its
// goroutine indefinitely.
const readHeaderTimeout = 5 * time.Second

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hhh: "+format+"\n", args...)
	os.Exit(2)
}
