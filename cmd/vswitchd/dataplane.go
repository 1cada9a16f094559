package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/netgen"
	"rhhh/internal/resilience"
	"rhhh/internal/telemetry"
	"rhhh/internal/trace"
	"rhhh/internal/vswitch"
)

// dataplaneConfig carries the dataplane-mode wiring, for any number of
// workers.
type dataplaneConfig struct {
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
	interval       time.Duration // the reader's tick
	ckpt           string        // checkpoint file ("" = none)
	ckptEvery      uint64        // combined packets between checkpoint writes (0 = only at exit)
	reg            *telemetry.Registry
	stop           <-chan struct{} // graceful drain: ends the drive early
	out, log       io.Writer       // watch events; diagnostics
}

// dataplaneReport is what a dataplane run measured.
type dataplaneReport struct {
	hhh     []core.Result[uint64] // final HHH set over the workers' union
	weight  uint64                // combined stream weight of the final publications
	elapsed time.Duration         // the longest worker drive
	stats   []vswitch.Stats       // per worker
}

// publishEvery is the workers' publication and telemetry cadence in packets,
// the default of the library's Sharded workers: it amortizes a publication
// to a few nanoseconds per packet and keeps reads well under a millisecond
// behind ingest at dataplane rates.
const publishEvery = 16384

// dpWorker is one receive queue: a private datapath (its own EMC over the
// shared flow table) feeding a private engine, which publishes through its
// ring. Only the ring is shared with the reader.
type dpWorker struct {
	eng  *core.Engine[uint64]
	ring *core.PubRing[uint64]
	dp   *vswitch.Datapath
	pkts []trace.Packet
	tm   *telemetry.EngineStats // nil without -metrics-addr
}

// cadenceHook runs a worker's engine hook and, every publishEvery packets,
// publishes the engine when a reader runs and stores its telemetry when a
// registry is set. Workers that need neither run the bare engine hook.
type cadenceHook struct {
	eh      *vswitch.EngineHook
	w       *dpWorker
	publish bool
	next    uint64
}

func (h *cadenceHook) OnPacket(p trace.Packet) {
	h.eh.OnPacket(p)
	if n := h.w.eng.N(); n >= h.next {
		for h.next <= n {
			h.next += publishEvery
		}
		if h.publish {
			h.w.ring.Publish()
		}
		h.w.eng.TelemetryInto(h.w.tm)
	}
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

// runDataplane is the shared-nothing dataplane: one ingest goroutine per
// worker drives its RSS partition through a private datapath and engine for
// the configured duration. With -watch or a periodic -checkpoint, one reader
// goroutine pins the workers' latest publications on every tick; the final
// report and the exit checkpoint read the publications each worker makes
// when its drive ends. No reader ever locks or pauses a worker.
func runDataplane(cfg dataplaneConfig) (dataplaneReport, error) {
	var ft vswitch.FlowTable
	ft.Add(vswitch.Rule{Priority: 0, Match: vswitch.Match{}, Action: vswitch.Action{OutPort: 1}})

	reading := cfg.watch || (cfg.ckpt != "" && cfg.ckptEvery > 0)
	parts := rssPartition(cfg.packets, cfg.workers)
	ws := make([]*dpWorker, cfg.workers)
	rings := make([]*core.PubRing[uint64], cfg.workers)
	for i := range ws {
		eng := core.New(cfg.dom, core.Config{
			Epsilon: cfg.epsilon, Delta: cfg.delta, V: cfg.v,
			Seed: cfg.seed + uint64(i)*0x9e3779b97f4a7c15, Backend: cfg.backend,
		})
		if i == 0 && cfg.ckpt != "" {
			restored, err := restoreEngine(eng, cfg.ckpt)
			if err != nil {
				return dataplaneReport{}, fmt.Errorf("restoring checkpoint: %w", err)
			}
			if restored {
				fmt.Fprintf(cfg.log, "vswitchd: restored N=%d from %s\n", eng.N(), cfg.ckpt)
			}
		}
		w := &dpWorker{eng: eng, ring: core.NewPubRing(eng), pkts: parts[i]}
		rings[i] = w.ring
		eh := vswitch.NewEngineHook(eng)
		if cfg.byBytes {
			eh = vswitch.NewEngineHookBytes(eng)
		}
		var hook vswitch.Hook = eh
		if cfg.reg != nil {
			w.tm = &telemetry.EngineStats{}
			w.tm.Register(cfg.reg, fmt.Sprintf(`{worker="%d"}`, i))
			eng.TelemetryInto(w.tm)
		}
		if reading || w.tm != nil {
			hook = &cadenceHook{eh: eh, w: w, publish: reading, next: eng.N() + publishEvery}
		}
		w.dp = vswitch.NewDatapath(&ft, vswitch.NewEMC(8192, cfg.seed+uint64(i)), hook)
		ws[i] = w
	}

	rd := &reader{
		cfg: &cfg, rings: rings,
		ex: core.NewExtractor(cfg.dom), differ: core.NewDiffer[uint64](),
		watch:    watchPrinter{out: cfg.out, log: cfg.log, dom: cfg.dom},
		nextCkpt: ws[0].eng.N() + cfg.ckptEvery, // only worker 0 starts restored
	}
	var readErr error
	readDone := make(chan struct{})
	var readWG sync.WaitGroup
	if reading {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			readErr = rd.run(readDone)
		}()
	}

	rep := dataplaneReport{stats: make([]vswitch.Stats, len(ws))}
	elapsed := make([]time.Duration, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			elapsed[i] = netgen.RunForStop(w.pkts, cfg.duration, cfg.stop, func(p trace.Packet) { w.dp.Process(p) }).Elapsed
			w.ring.Publish() // everything absorbed becomes visible
			w.eng.TelemetryInto(w.tm)
		}()
	}
	wg.Wait()
	close(readDone)
	readWG.Wait()
	if readErr != nil {
		return dataplaneReport{}, readErr
	}

	for i, w := range ws {
		rep.stats[i] = w.dp.Stats()
		rep.elapsed = max(rep.elapsed, elapsed[i])
	}
	var err error
	rep.hhh, rep.weight, err = rd.final()
	return rep, err
}

// reader is the dataplane's one reader: it pins the workers' publications
// for the standing query (-watch), the checkpoint (-checkpoint) and the
// final report. Not safe for concurrent use.
type reader struct {
	cfg      *dataplaneConfig
	rings    []*core.PubRing[uint64]
	pins     core.PinSet[uint64]
	ex       *core.Extractor[uint64]
	differ   *core.Differ[uint64]
	sm       core.SnapshotMerger[uint64]
	merged   core.EngineSnapshot[uint64]
	watch    watchPrinter
	seq      uint64 // watch ticks
	nextCkpt uint64 // combined packets at which the next periodic checkpoint is due
}

// run ticks on the configured interval until done is closed, and stops at
// the first checkpoint write that fails.
func (rd *reader) run(done <-chan struct{}) error {
	t := time.NewTicker(rd.cfg.interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-t.C:
			if err := rd.tick(); err != nil {
				return err
			}
		}
	}
}

// tick logs the standing query's changes since the last tick and writes a
// checkpoint once the combined published packets have grown by ckptEvery.
func (rd *reader) tick() error {
	snaps, _ := rd.pins.Pin(rd.rings)
	packets, weight := sums(snaps)
	if rd.cfg.watch {
		rd.seq++
		if d := rd.differ.Diff(rd.ex.ExtractSnapshots(snaps, rd.cfg.theta), 0); !d.Empty() {
			rd.watch.print(rd.seq, weight, d.Admitted, d.Retired, d.Updated)
		}
	}
	due := rd.cfg.ckpt != "" && rd.cfg.ckptEvery > 0 && packets >= rd.nextCkpt
	if due {
		for rd.nextCkpt <= packets {
			rd.nextCkpt += rd.cfg.ckptEvery
		}
		rd.sm.Merge(&rd.merged, snaps...)
	}
	rd.pins.Unpin()
	if !due {
		return nil
	}
	return rd.checkpoint()
}

// final reads the last publications: the HHH set and stream weight over
// the workers' union, and writes the exit checkpoint.
func (rd *reader) final() ([]core.Result[uint64], uint64, error) {
	snaps, _ := rd.pins.Pin(rd.rings)
	_, weight := sums(snaps)
	hhh := slices.Clone(rd.ex.ExtractSnapshots(snaps, rd.cfg.theta))
	if rd.cfg.ckpt != "" {
		rd.sm.Merge(&rd.merged, snaps...)
	}
	rd.pins.Unpin()
	if rd.cfg.ckpt != "" {
		if err := rd.checkpoint(); err != nil {
			return nil, 0, err
		}
	}
	return hhh, weight, nil
}

// checkpoint writes the last merge: one engine snapshot over the union of
// the workers' publications, restorable into a single engine. The merge
// copies, so the write runs with no publication pinned.
func (rd *reader) checkpoint() error {
	if err := writeCheckpoint(&rd.merged, rd.cfg.ckpt); err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	return nil
}

// sums returns the combined packets and stream weight of snaps.
func sums(snaps []*core.EngineSnapshot[uint64]) (packets, weight uint64) {
	for _, s := range snaps {
		packets += s.Packets
		weight += s.Weight
	}
	return packets, weight
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

// writeCheckpoint atomically replaces the checkpoint file: fsynced temp
// write, rename, directory sync — the same durability discipline as the
// resilience checkpoint store, so a crash (or power loss) mid-write never
// costs the last good checkpoint.
func writeCheckpoint(es *core.EngineSnapshot[uint64], path string) error {
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
