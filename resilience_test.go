package rhhh_test

import (
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"rhhh"
	"rhhh/internal/resilience"
)

// silentPolicy returns a fast-backoff supervision policy that records into
// stats without spamming the test log with expected panic stacks.
func silentPolicy(stats *resilience.Stats) *resilience.Policy {
	return &resilience.Policy{
		Backoff:    time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
		Stats:      stats,
		Logf:       func(string, ...any) {},
	}
}

// feedShardedMix pushes a deterministic heavy+noise mix into every worker
// and publishes it.
func feedShardedMix(mon *rhhh.Sharded, round int) {
	heavy := addr4(10, 1, 2, 3)
	for w := 0; w < mon.Workers(); w++ {
		wk := mon.Worker(w)
		for i := 0; i < 2048; i++ {
			if i%2 == 0 {
				wk.Update(heavy, netip.Addr{})
			} else {
				wk.Update(addr4(192, byte(round), byte(w), byte(i)), netip.Addr{})
			}
		}
		wk.Sync()
	}
}

// hitsFingerprint canonicalizes a heavy-hitters answer for equality checks.
func hitsFingerprint(hits []rhhh.HeavyHitter) []rhhh.HeavyHitter {
	out := make([]rhhh.HeavyHitter, len(hits))
	copy(out, hits)
	sort.Slice(out, func(i, j int) bool { return out[i].Text < out[j].Text })
	return out
}

// TestCheckpointerRestoreRoundTrip drives full + delta checkpoints through
// a real on-disk store, then restores a fresh monitor and checks it answers
// identically — and keeps working as an ingest target afterwards.
func TestCheckpointerRestoreRoundTrip(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.01, Delta: 0.01, Seed: 3}
	dir := t.TempDir()
	mon, err := rhhh.NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	ck, err := rhhh.NewCheckpointer(mon, dir, 4)
	if err != nil {
		t.Fatal(err)
	}

	fulls, deltas := 0, 0
	for round := 0; round < 7; round++ {
		feedShardedMix(mon, round)
		full, err := ck.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint %d: %v", round, err)
		}
		if full {
			fulls++
		} else {
			deltas++
		}
	}
	if fulls < 2 || deltas < 4 {
		// fullEvery=4: round 0 is a full, 1..4 deltas, 5 promotes, 6 delta.
		t.Fatalf("fulls=%d deltas=%d; the journal cadence is wrong", fulls, deltas)
	}
	wantN := mon.N()
	wantHits := hitsFingerprint(mon.HeavyHitters(0.01))
	if wantN == 0 || len(wantHits) == 0 {
		t.Fatal("test stream produced no state worth checkpointing")
	}

	// "Kill" the process: a brand-new monitor restores from the directory.
	mon2, err := rhhh.NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	ck2, err := rhhh.NewCheckpointer(mon2, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ck2.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !restored {
		t.Fatal("Restore found nothing")
	}
	if got := mon2.N(); got != wantN {
		t.Fatalf("restored N = %d, want %d", got, wantN)
	}
	if got := hitsFingerprint(mon2.HeavyHitters(0.01)); !reflect.DeepEqual(got, wantHits) {
		t.Fatalf("restored heavy hitters differ:\n got %+v\nwant %+v", got, wantHits)
	}

	// The restored monitor is a live ingest target: more traffic, another
	// checkpoint generation, everything keeps moving.
	feedShardedMix(mon2, 99)
	if mon2.N() <= wantN {
		t.Fatal("restored monitor did not ingest")
	}
	if _, err := ck2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after restore: %v", err)
	}
}

// TestCheckpointerFaultsRestoreLastDurable is the end-to-end crash-safety
// check: with write faults injected under the store, a kill-and-restart
// restores exactly the state of the last checkpoint call that reported
// success — reported failures never corrupt or advance recoverable state.
func TestCheckpointerFaultsRestoreLastDurable(t *testing.T) {
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.01, Delta: 0.01, Seed: 5}
	for seed := uint64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		ffs := resilience.NewFaultFS(resilience.OSFS{}, seed, 0)
		mon, err := rhhh.NewSharded(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := rhhh.NewCheckpointerFS(mon, dir, ffs, 3)
		if err != nil {
			t.Fatal(err)
		}

		ffs.SetRate(0.4)
		var wantN uint64
		var wantHits []rhhh.HeavyHitter
		haveDurable := false
		failures := 0
		for round := 0; round < 20; round++ {
			feedShardedMix(mon, round)
			if _, err := ck.Checkpoint(); err != nil {
				failures++
				continue
			}
			wantN = mon.N()
			wantHits = hitsFingerprint(mon.HeavyHitters(0.01))
			haveDurable = true
		}
		_ = mon.Close()
		if !haveDurable {
			t.Fatalf("seed %d: no checkpoint ever succeeded at rate 0.4", seed)
		}
		if failures == 0 {
			t.Fatalf("seed %d: fault injection never fired; the test is vacuous", seed)
		}

		mon2, err := rhhh.NewSharded(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		ck2, err := rhhh.NewCheckpointer(mon2, dir, 3)
		if err != nil {
			t.Fatalf("seed %d: reopening after faults: %v", seed, err)
		}
		restored, err := ck2.Restore()
		if err != nil {
			t.Fatalf("seed %d: Restore after faults: %v", seed, err)
		}
		if !restored {
			t.Fatalf("seed %d: nothing restored despite a durable point", seed)
		}
		if got := mon2.N(); got != wantN {
			t.Fatalf("seed %d: restored N = %d, want last durable %d", seed, got, wantN)
		}
		if got := hitsFingerprint(mon2.HeavyHitters(0.01)); !reflect.DeepEqual(got, wantHits) {
			t.Fatalf("seed %d: restored hits differ from last durable point", seed)
		}
		_ = mon2.Close()
	}
}

// TestCheckpointerGenerationConcurrent: Generation is safe from any
// goroutine while the owner checkpoints — hhhd's /healthz reads it while
// its checkpoint loop writes — and reports the last durable point.
func TestCheckpointerGenerationConcurrent(t *testing.T) {
	mon, err := rhhh.NewSharded(rhhh.Config{Dims: 1, Epsilon: 0.01, Delta: 0.01, Seed: 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	ck, err := rhhh.NewCheckpointer(mon, t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				ck.Generation()
				runtime.Gosched()
			}
		}
	}()
	for round := 0; round < 10; round++ {
		feedShardedMix(mon, round)
		if _, err := ck.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", round, err)
		}
	}
	close(stop)
	<-done
	// fullEvery=4: rounds 0 and 5 write generations 1 and 2, and rounds
	// 6..9 the four segments of generation 2.
	if gen, seq := ck.Generation(); gen != 2 || seq != 4 {
		t.Fatalf("Generation() = %d, %d, want 2, 4", gen, seq)
	}
}

// TestWatchDriverSurvivesPanicInOnDelta injects panics into a standing-query
// callback: the supervised watch driver must capture them, restart with
// backoff, and keep delivering deltas — the daemon never loses its watch
// surface to one bad subscriber callback.
func TestWatchDriverSurvivesPanicInOnDelta(t *testing.T) {
	mon, err := rhhh.NewSharded(rhhh.Config{Dims: 1, Epsilon: 0.01, Delta: 0.01, Seed: 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	var stats resilience.Stats
	mon.SetResiliencePolicy(silentPolicy(&stats))

	heavy := addr4(10, 9, 8, 7)
	var mu sync.Mutex
	panicsLeft := 2
	deliveries := 0
	sub, err := mon.Watch(rhhh.WatchOptions{
		Theta:    0.2,
		Interval: time.Millisecond,
		OnDelta: func(d rhhh.Delta) {
			mu.Lock()
			defer mu.Unlock()
			if panicsLeft > 0 {
				panicsLeft--
				panic("injected OnDelta panic")
			}
			deliveries++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Keep the stream moving so every tick has a delta to deliver.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := mon.Worker(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 512; i++ {
				w.Update(heavy, netip.Addr{})
			}
			w.Sync()
			time.Sleep(time.Millisecond)
		}
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		ok := deliveries >= 3 && panicsLeft == 0
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("watch did not recover: deliveries=%d panicsLeft=%d panics=%d restarts=%d",
				deliveries, panicsLeft, stats.Panics.Load(), stats.Restarts.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if stats.Panics.Load() < 2 {
		t.Fatalf("panics recorded = %d, want >= 2", stats.Panics.Load())
	}
	if stats.Restarts.Load() < 1 {
		t.Fatalf("restarts recorded = %d, want >= 1", stats.Restarts.Load())
	}
}

// TestWindowedSlidingMergePanicRecovered injects a panic into the sliding-
// window flush callback: the merge goroutine's supervision must capture it
// and release the flush handshake so the producer never deadlocks, and
// later windows must still deliver.
func TestWindowedSlidingMergePanicRecovered(t *testing.T) {
	const k = 3
	cfg := rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, Seed: 11}
	window := uint64(20000)

	var mu sync.Mutex
	panicFirst := true
	flushes := 0
	w, err := rhhh.NewSlidingWindowed(cfg, window, k, 0.2, func(r rhhh.WindowResult) {
		mu.Lock()
		defer mu.Unlock()
		if panicFirst {
			panicFirst = false
			panic("injected onFlush panic")
		}
		flushes++
	})
	if err != nil {
		t.Fatal(err)
	}
	var stats resilience.Stats
	w.SetResiliencePolicy(silentPolicy(&stats))

	heavy := addr4(8, 8, 8, 8)
	for i := uint64(0); i < 4*window; i++ {
		w.Update(heavy, netip.Addr{})
	}
	w.Sync()
	mu.Lock()
	got := flushes
	mu.Unlock()
	if got < 2 {
		t.Fatalf("flushes after panic = %d, want >= 2 (stream must continue)", got)
	}
	if stats.Panics.Load() != 1 {
		t.Fatalf("panics recorded = %d, want 1", stats.Panics.Load())
	}
}

// TestMaxPublishAgeOnlyPendingIntake pins the degrade controller's lag
// signal: only absorbed-but-unpublished intake ages. A worker that
// published its state and went quiet — e.g. a bounded feeder that finished
// its -n share while others keep running — must read zero forever, not
// ever-growing lag that spuriously escalates the ladder to max.
func TestMaxPublishAgeOnlyPendingIntake(t *testing.T) {
	mon, err := rhhh.NewSharded(rhhh.Config{Dims: 1, Epsilon: 0.01, Delta: 0.01, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	now := time.Now()
	if age := mon.MaxPublishAge(now); age != 0 {
		t.Fatalf("fresh monitor lag = %v, want 0", age)
	}
	w := mon.Worker(0)
	w.Update(addr4(10, 0, 0, 1), addr4(10, 0, 0, 2))
	if age := mon.MaxPublishAge(now.Add(10 * time.Second)); age < 5*time.Second {
		t.Fatalf("pending-intake lag = %v, want ~10s", age)
	}
	w.Sync() // everything published: the worker is fully caught up
	if age := mon.MaxPublishAge(now.Add(time.Hour)); age != 0 {
		t.Fatalf("idle published worker lag = %v, want 0 (no pending intake may age)", age)
	}
	// New intake after the idle stretch ages from its own arrival, not from
	// the long-gone last publication.
	w.Update(addr4(10, 0, 0, 3), addr4(10, 0, 0, 4))
	if age := mon.MaxPublishAge(time.Now().Add(time.Second)); age > 2*time.Second {
		t.Fatalf("fresh pending intake lag = %v, want about 1s", age)
	}
}
