package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/resilience"
	"rhhh/internal/trace"
)

var testPackets = buildPackets("chicago16", 1<<14)

// testConfig matches the configuration testdata/parent-checkpoint.bin was
// written with: ε = δ = 0.05, V = 10·H, Space Saving.
func testConfig(workers int) dataplaneConfig {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	return dataplaneConfig{
		dom: dom, packets: testPackets, workers: workers,
		epsilon: 0.05, delta: 0.05, v: 10 * dom.Size(), seed: 7, backend: core.SpaceSavingBackend,
		theta: 0.02, duration: 30 * time.Millisecond, interval: time.Millisecond,
		out: io.Discard, log: io.Discard,
	}
}

// referenceEngine feeds whole passes over packets to a plain engine
// configured like dataplane worker i.
func referenceEngine(t *testing.T, cfg dataplaneConfig, i int, packets []trace.Packet, received uint64) *core.Engine[uint64] {
	t.Helper()
	if received == 0 || received%uint64(len(packets)) != 0 {
		t.Fatalf("worker %d received %d packets, not whole passes over %d", i, received, len(packets))
	}
	eng := core.New(cfg.dom, core.Config{
		Epsilon: cfg.epsilon, Delta: cfg.delta, V: cfg.v,
		Seed: cfg.seed + uint64(i)*0x9e3779b97f4a7c15, Backend: cfg.backend,
	})
	for range received / uint64(len(packets)) {
		for _, p := range packets {
			eng.Update(p.Key2())
		}
	}
	return eng
}

func sameResults(t *testing.T, got, want []core.Result[uint64]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d heavy hitters, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("heavy hitter %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDataplaneOneWorkerMatchesEngine: one worker answers bit-identically to
// a plain engine with the same seed fed the same passes, while a -watch
// reader pins its publications on a 1 ms tick.
func TestDataplaneOneWorkerMatchesEngine(t *testing.T) {
	cfg := testConfig(1)
	cfg.watch = true
	rep, err := runDataplane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := referenceEngine(t, cfg, 0, testPackets, rep.stats[0].Received)
	sameResults(t, rep.hhh, eng.Output(cfg.theta))
	if rep.weight != eng.Weight() {
		t.Fatalf("weight %d, want %d", rep.weight, eng.Weight())
	}
}

// TestDataplaneTwoWorkersMatchUnion: two workers answer bit-identically to
// the union read over two plain engines fed rssPartition's parts.
func TestDataplaneTwoWorkersMatchUnion(t *testing.T) {
	cfg := testConfig(2)
	rep, err := runDataplane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := rssPartition(testPackets, 2)
	var snaps []*core.EngineSnapshot[uint64]
	for i, part := range parts {
		snaps = append(snaps, referenceEngine(t, cfg, i, part, rep.stats[i].Received).Snapshot())
	}
	sameResults(t, rep.hhh, core.NewExtractor(cfg.dom).ExtractSnapshots(snaps, cfg.theta))
}

// TestDataplaneCheckpointRestoresCombinedN: a two-worker run checkpoints
// the workers' merged state, which restores into one engine with the
// combined N, and a second run restores it into worker 0.
func TestDataplaneCheckpointRestoresCombinedN(t *testing.T) {
	cfg := testConfig(2)
	cfg.ckpt = filepath.Join(t.TempDir(), "vs.ckpt")
	cfg.ckptEvery = 1000
	rep, err := runDataplane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	combined := rep.stats[0].Received + rep.stats[1].Received
	eng := core.New(cfg.dom, core.Config{Epsilon: cfg.epsilon, Delta: cfg.delta, V: cfg.v, Backend: cfg.backend})
	store, err := resilience.OpenStore(cfg.ckpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := core.NewCheckpointer(store, []*core.PubRing[uint64]{core.NewPubRing(eng)}, 0)
	if ok, err := ck.Restore(); !ok || err != nil {
		t.Fatalf("restore: %v, %v", ok, err)
	}
	if eng.N() != combined || eng.Weight() != rep.weight {
		t.Fatalf("restored N=%d weight=%d, want %d and %d", eng.N(), eng.Weight(), combined, rep.weight)
	}

	var log bytes.Buffer
	cfg.log = &log
	rep2, err := runDataplane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("restored N=%d ", combined); !strings.Contains(log.String(), want) {
		t.Fatalf("second run logged %q, want %q", log.String(), want)
	}
	if want := combined + rep2.stats[0].Received + rep2.stats[1].Received; rep2.weight != want {
		t.Fatalf("second run weight %d, want %d", rep2.weight, want)
	}
}

// TestDataplaneRestoresParentCheckpoint: a single-file checkpoint written
// by the single-engine dataplane before the workers shared one path (one
// pass of the chicago16 workload, N = 262144) is adopted by the checkpoint
// store and restores; the path is then a store directory, which a second
// run restores from. It was written with
//
//	vswitchd -mode dataplane -epsilon 0.05 -delta 0.05 -v 10 -duration 50ms \
//	    -seed 7 -checkpoint parent-checkpoint.bin -checkpoint-every 0
func TestDataplaneRestoresParentCheckpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/parent-checkpoint.bin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.ckpt = filepath.Join(t.TempDir(), "vs.ckpt")
	if err := os.WriteFile(cfg.ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	cfg.log = &log
	rep, err := runDataplane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "restored N=262144 ") {
		t.Fatalf("logged %q, want restored N=262144", log.String())
	}
	first := 262144 + rep.stats[0].Received + rep.stats[1].Received
	if rep.weight != first {
		t.Fatalf("weight %d, want %d", rep.weight, first)
	}
	if fi, err := os.Stat(cfg.ckpt); err != nil || !fi.IsDir() {
		t.Fatalf("checkpoint path after adoption: %v, %v; want a store directory", fi, err)
	}
	if _, err := os.Stat(cfg.ckpt + ".pre-store"); !os.IsNotExist(err) {
		t.Fatalf("adopted file left behind: %v", err)
	}

	log.Reset()
	if _, err := runDataplane(cfg); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("restored N=%d ", first); !strings.Contains(log.String(), want) {
		t.Fatalf("second run logged %q, want %q", log.String(), want)
	}
}

// TestDataplaneWatchTicks: -watch with a short interval prints ticks while
// traffic runs.
func TestDataplaneWatchTicks(t *testing.T) {
	cfg := testConfig(2)
	cfg.watch = true
	cfg.duration = 200 * time.Millisecond
	var out bytes.Buffer
	cfg.out = &out
	if _, err := runDataplane(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "watch tick=") {
		t.Fatalf("no watch tick printed: %q", out.String())
	}
}

// writeCounter records every Write it is handed; fail makes each one fail.
type writeCounter struct {
	writes [][]byte
	fail   error
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(b))
	if w.fail != nil {
		return 0, w.fail
	}
	return len(b), nil
}

// TestDataplaneWatchTickIsOneWrite: each -watch tick reaches the output in
// one Write holding exactly one tick, however many event lines it carries,
// and a failed write is reported on the log.
func TestDataplaneWatchTickIsOneWrite(t *testing.T) {
	cfg := testConfig(2)
	cfg.watch = true
	cfg.duration = 200 * time.Millisecond
	var out writeCounter
	cfg.out = &out
	if _, err := runDataplane(cfg); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for i, w := range out.writes {
		if !bytes.HasPrefix(w, []byte("watch tick=")) || bytes.Count(w, []byte("watch tick=")) != 1 {
			t.Fatalf("write %d is not one tick: %q", i, w)
		}
		lines += bytes.Count(w, []byte("\n"))
	}
	if len(out.writes) == 0 || lines <= len(out.writes) {
		t.Fatalf("%d writes of %d lines: want ticks that carry events", len(out.writes), lines)
	}

	var log bytes.Buffer
	wp := watchPrinter{out: &writeCounter{fail: io.ErrShortWrite}, log: &log, dom: cfg.dom}
	wp.print(3, 100, []core.Result[uint64]{{}}, nil, nil)
	if !strings.Contains(log.String(), "watch tick 3: "+io.ErrShortWrite.Error()) {
		t.Fatalf("failed write not logged: %q", log.String())
	}
}
