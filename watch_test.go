package rhhh_test

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"sync"
	"testing"
	"time"

	"rhhh"
)

// hhKey identifies a heavy hitter across queries: the prefix pair pins the
// (node, key) identity exactly (prefix strings carry their bit lengths).
func hhKey(h rhhh.HeavyHitter) string { return h.Src.String() + "|" + h.Dst.String() }

// replaySet is a subscriber's reconstruction of the HHH set from the delta
// stream alone.
type replaySet map[string]rhhh.HeavyHitter

func (st replaySet) apply(t *testing.T, d rhhh.Delta) {
	t.Helper()
	for _, h := range d.Retired {
		if _, ok := st[hhKey(h)]; !ok {
			t.Fatalf("retirement of absent prefix %s", h.Text)
		}
		delete(st, hhKey(h))
	}
	for _, h := range d.Admitted {
		if _, ok := st[hhKey(h)]; ok {
			t.Fatalf("admission of already-present prefix %s", h.Text)
		}
		st[hhKey(h)] = h
	}
	for _, h := range d.Updated {
		if _, ok := st[hhKey(h)]; !ok {
			t.Fatalf("update of absent prefix %s", h.Text)
		}
		st[hhKey(h)] = h
	}
}

// mustEqualFull asserts the replayed set is bit-identical to a full query's
// result set.
func (st replaySet) mustEqualFull(t *testing.T, full []rhhh.HeavyHitter, ctx string) {
	t.Helper()
	if len(st) != len(full) {
		t.Fatalf("%s: replayed set has %d prefixes, full query %d", ctx, len(st), len(full))
	}
	for _, h := range full {
		got, ok := st[hhKey(h)]
		if !ok {
			t.Fatalf("%s: full query has %s, replayed set does not", ctx, h.Text)
		}
		if got != h {
			t.Fatalf("%s: replayed %s = %+v, full query %+v", ctx, h.Text, got, h)
		}
	}
}

// watchAddr draws a skewed address: a few heavy /8s and /16s over a small
// leaf universe, so HHH sets are non-trivial at every level.
func watchAddr(r *rand.Rand) netip.Addr {
	firsts := [...]byte{10, 10, 10, 181, 181, 192, 200}
	return netip.AddrFrom4([4]byte{
		firsts[r.IntN(len(firsts))], byte(r.IntN(3)), byte(r.IntN(2)), byte(r.IntN(40)),
	})
}

// TestWatchDeltaReplayLive interleaves random update bursts with ticks on a
// Monitor and checks, at every tick, that the accumulated delta stream
// replayed from empty is bit-identical to an independent full HeavyHitters
// query — including across a marshal/unmarshal/restore mid-stream.
func TestWatchDeltaReplayLive(t *testing.T) {
	for _, dims := range []int{1, 2} {
		t.Run(map[int]string{1: "1D", 2: "2D"}[dims], func(t *testing.T) {
			m := rhhh.MustNew(rhhh.Config{
				Dims: dims, Granularity: rhhh.Byte,
				Epsilon: 0.02, Delta: 0.01, Seed: 5,
			})
			const theta = 0.1
			state := replaySet{}
			deltas := 0
			sub, err := m.Watch(rhhh.WatchOptions{Theta: theta, OnDelta: func(d rhhh.Delta) {
				state.apply(t, d)
				deltas++
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			rng := rand.New(rand.NewPCG(1, uint64(dims)))
			feed := func(n int) {
				for ; n > 0; n-- {
					var dst netip.Addr
					if dims == 2 {
						dst = watchAddr(rng)
					}
					m.Update(watchAddr(rng), dst)
				}
			}
			for step := 0; step < 25; step++ {
				feed(100 + rng.IntN(900))
				m.Tick()
				state.mustEqualFull(t, m.HeavyHitters(theta), "tick")
				if step == 12 {
					// Snapshot-restore mid-stream: the watch must keep
					// producing replay-exact deltas across the restore.
					data, err := m.Snapshot().MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					var snap rhhh.Snapshot
					if err := snap.UnmarshalBinary(data); err != nil {
						t.Fatal(err)
					}
					if err := m.LoadSnapshot(&snap); err != nil {
						t.Fatal(err)
					}
					m.Tick()
					state.mustEqualFull(t, m.HeavyHitters(theta), "post-restore tick")
				}
			}
			if deltas == 0 {
				t.Fatal("no deltas delivered")
			}
		})
	}
}

// TestWatchDeltaReplaySharded is the same differential over the Sharded
// surface, ticking the driver's hub synchronously between update bursts.
func TestWatchDeltaReplaySharded(t *testing.T) {
	s, err := rhhh.NewSharded(rhhh.Config{
		Dims: 2, Granularity: rhhh.Byte,
		Epsilon: 0.02, Delta: 0.01, Seed: 9,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const theta = 0.08
	state := replaySet{}
	_, err = s.Watch(rhhh.WatchOptions{
		Theta: theta, Interval: time.Hour, // only explicit test ticks
		OnDelta: func(d rhhh.Delta) { state.apply(t, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 7))
	for step := 0; step < 20; step++ {
		for n := 200 + rng.IntN(800); n > 0; n-- {
			s.Worker(n%s.Workers()).Update(watchAddr(rng), watchAddr(rng))
		}
		s.Sync() // publish so the tick and the query see this burst
		s.TickWatch()
		state.mustEqualFull(t, s.HeavyHitters(theta), "sharded tick")
	}
}

// TestWindowedWatchDeltaReplay checks the differential across completed
// windows (tumbling and sliding): each delivered window result must equal
// the delta stream replayed up to that window's tick.
func TestWindowedWatchDeltaReplay(t *testing.T) {
	cases := []struct {
		name   string
		window uint64
		k      int
	}{
		{"Tumbling", 6000, 1},
		{"Sliding", 2500, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const theta = 0.1
			state := replaySet{}
			checked := 0
			onFlush := func(res rhhh.WindowResult) {
				state.mustEqualFull(t, res.HeavyHitters, "window flush")
				checked++
			}
			w, err := rhhh.NewSlidingWindowed(rhhh.Config{
				Dims: 1, Granularity: rhhh.Byte,
				Epsilon: 0.05, Delta: 0.05, Seed: 11,
			}, tc.window, tc.k, theta, onFlush)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			sub, err := w.Watch(rhhh.WatchOptions{Theta: theta, OnDelta: func(d rhhh.Delta) {
				state.apply(t, d)
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			rng := rand.New(rand.NewPCG(3, uint64(tc.k)))
			for i := 0; i < int(tc.window)*8; i++ {
				w.Update(watchAddr(rng), netip.Addr{})
			}
			w.Sync() // sliding ticks run on the background merger
			if checked < 7 {
				t.Fatalf("only %d windows checked", checked)
			}
		})
	}
}

// TestWatchMembershipTransitions drives a prefix into and back out of the
// HHH set and checks admitted/retired events fire.
func TestWatchMembershipTransitions(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{
		Dims: 1, Granularity: rhhh.Byte,
		Epsilon: 0.01, Delta: 0.01, Seed: 4,
	})
	var admitted, retired []string
	sub, err := m.Watch(rhhh.WatchOptions{Theta: 0.3, OnDelta: func(d rhhh.Delta) {
		for _, h := range d.Admitted {
			admitted = append(admitted, h.Text)
		}
		for _, h := range d.Retired {
			retired = append(retired, h.Text)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	heavy := netip.MustParseAddr("181.7.3.1")
	for i := 0; i < 50_000; i++ {
		m.Update(heavy, netip.Addr{})
	}
	m.Tick()
	if len(admitted) == 0 {
		t.Fatal("dominant prefix not admitted")
	}
	// Dilute: spread enough traffic elsewhere that 181.* drops below θ.
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 400_000; i++ {
		m.Update(netip.AddrFrom4([4]byte{byte(rng.IntN(200)), byte(rng.IntN(250)), byte(rng.IntN(250)), byte(rng.IntN(250))}), netip.Addr{})
	}
	m.Tick()
	found := false
	for _, text := range retired {
		if text == "181.7.3.1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diluted prefix never retired; retired = %v", retired)
	}
}

// TestWatchHysteresis pins the MinDelta contract: sub-threshold estimate
// drift is suppressed, membership changes never are.
func TestWatchHysteresis(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{
		Dims: 1, Granularity: rhhh.Byte,
		Epsilon: 0.01, Delta: 0.01, Seed: 4,
	})
	heavy := netip.MustParseAddr("10.1.2.3")
	events := 0
	updatedEvents := 0
	sub, err := m.Watch(rhhh.WatchOptions{
		Theta:    0.5,
		MinDelta: 1e15, // nothing drifts this far: only membership changes fire
		OnDelta: func(d rhhh.Delta) {
			events++
			updatedEvents += len(d.Updated)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 100_000; i++ {
		m.Update(heavy, netip.Addr{})
	}
	m.Tick()
	if events != 1 {
		t.Fatalf("expected exactly the admission delta, got %d deltas", events)
	}
	// More of the same traffic: estimates move, membership does not.
	for tick := 0; tick < 5; tick++ {
		for i := 0; i < 1000; i++ {
			m.Update(heavy, netip.Addr{})
		}
		m.Tick()
	}
	if events != 1 || updatedEvents != 0 {
		t.Fatalf("hysteresis leaked: %d deltas, %d updated events", events, updatedEvents)
	}
}

// TestWatchSlowConsumerDropOldest pins the channel delivery policy: a full
// buffer drops the *oldest* delta (latest wins) and counts the loss.
func TestWatchSlowConsumerDropOldest(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{
		Dims: 1, Granularity: rhhh.Byte,
		Epsilon: 0.01, Delta: 0.01, Seed: 4,
	})
	heavy := netip.MustParseAddr("10.1.2.3")
	sub, err := m.Watch(rhhh.WatchOptions{Theta: 0.5, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const ticks = 10
	for i := 0; i < ticks; i++ {
		// Every tick changes N (and so every estimate), so every tick emits.
		for j := 0; j < 10_000; j++ {
			m.Update(heavy, netip.Addr{})
		}
		m.Tick()
	}
	var got []rhhh.Delta
drain:
	for {
		select {
		case d := <-sub.Events():
			got = append(got, d)
		default:
			break drain
		}
	}
	if len(got) != 2 {
		t.Fatalf("buffer of 2 delivered %d deltas", len(got))
	}
	if got[0].Seq != ticks-1 || got[1].Seq != ticks {
		t.Fatalf("expected the two latest deltas (seq %d, %d), got %d, %d",
			ticks-1, ticks, got[0].Seq, got[1].Seq)
	}
	if got[1].Dropped != ticks-2 {
		t.Fatalf("expected %d recorded drops, got %d", ticks-2, got[1].Dropped)
	}
}

// TestWatchPrefixFilters checks a filtered subscription sees exactly the
// unfiltered events whose prefixes sit inside the filter.
func TestWatchPrefixFilters(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{
		Dims: 2, Granularity: rhhh.Byte,
		Epsilon: 0.02, Delta: 0.01, Seed: 6,
	})
	all := replaySet{}
	filtered := replaySet{}
	subAll, err := m.Watch(rhhh.WatchOptions{Theta: 0.05, OnDelta: func(d rhhh.Delta) { all.apply(t, d) }})
	if err != nil {
		t.Fatal(err)
	}
	defer subAll.Close()
	filterPfx := netip.MustParsePrefix("10.0.0.0/8")
	subF, err := m.Watch(rhhh.WatchOptions{
		Theta: 0.05, SrcFilter: filterPfx,
		OnDelta: func(d rhhh.Delta) { filtered.apply(t, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer subF.Close()

	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 30_000; i++ {
		m.Update(watchAddr(rng), watchAddr(rng))
	}
	m.Tick()
	want := 0
	for k, h := range all {
		in := h.Src.Bits() >= filterPfx.Bits() && filterPfx.Contains(h.Src.Addr())
		if in {
			want++
		}
		_, got := filtered[k]
		if got != in {
			t.Fatalf("filter mismatch for %s (src %v): in=%v delivered=%v", h.Text, h.Src, in, got)
		}
	}
	if want == 0 || want == len(all) {
		t.Fatalf("degenerate filter test: %d of %d inside the filter", want, len(all))
	}
	if len(filtered) != want {
		t.Fatalf("filtered set has %d prefixes, want %d", len(filtered), want)
	}
}

// TestWatchOptionValidation covers the rejection paths.
func TestWatchOptionValidation(t *testing.T) {
	m1 := rhhh.MustNew(rhhh.Config{Dims: 1, Granularity: rhhh.Byte, Epsilon: 0.01, Delta: 0.01})
	cases := []rhhh.WatchOptions{
		{},                          // no threshold at all
		{Theta: 1.5},                // out of range
		{Theta: 0.1, AutoThetaK: 3}, // both set
		{AutoThetaK: -1},            // negative k
		{Theta: 0.1, MinDelta: -1},  // negative hysteresis
		{Theta: 0.1, MinDelta: math.NaN()},
		{Theta: 0.1, Interval: -time.Second},
		{Theta: 0.1, DstFilter: netip.MustParsePrefix("10.0.0.0/8")},    // 1D
		{Theta: 0.1, SrcFilter: netip.MustParsePrefix("2001:db8::/32")}, // family
	}
	for i, opts := range cases {
		if _, err := m1.Watch(opts); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opts)
		}
	}
}

// TestSuggestThetaAndAutoTheta checks the adaptive-θ helper and its Watch
// integration: the suggested threshold is monotone in k, in range, and the
// AutoThetaK subscription uses exactly it each tick.
func TestSuggestThetaAndAutoTheta(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{
		Dims: 1, Granularity: rhhh.Byte,
		Epsilon: 0.01, Delta: 0.01, Seed: 3,
	})
	if got := m.Snapshot().SuggestTheta(4); got != 1 {
		t.Fatalf("empty snapshot should suggest 1, got %v", got)
	}
	// 50 leaves with strictly decreasing weights.
	for i := 0; i < 50; i++ {
		addr := netip.AddrFrom4([4]byte{20, 30, byte(i), 1})
		for j := 0; j < (51-i)*40; j++ {
			m.Update(addr, netip.Addr{})
		}
	}
	snap := m.Snapshot()
	t1, t3, t10 := snap.SuggestTheta(1), snap.SuggestTheta(3), snap.SuggestTheta(10)
	if !(t1 > 0 && t1 <= 1) || !(t10 > 0 && t10 <= 1) {
		t.Fatalf("suggested thetas out of range: %v %v %v", t1, t3, t10)
	}
	if t1 < t3 || t3 < t10 {
		t.Fatalf("suggested theta not monotone in k: θ1=%v θ3=%v θ10=%v", t1, t3, t10)
	}
	// δ ≥ 0.5 makes the sampling correction non-positive: the suggestion
	// must still be a valid threshold (clamped to (0, 1]).
	m2 := rhhh.MustNew(rhhh.Config{Dims: 1, Granularity: rhhh.Byte, Epsilon: 0.5, Delta: 0.9})
	m2.Update(netip.MustParseAddr("1.2.3.4"), netip.Addr{})
	for k := 1; k <= 5; k++ {
		th := m2.Snapshot().SuggestTheta(k)
		if !(th > 0 && th <= 1) {
			t.Fatalf("degenerate-δ SuggestTheta(%d) = %v out of (0, 1]", k, th)
		}
		m2.HeavyHitters(th) // must not panic
	}

	var gotTheta float64
	sub, err := m.Watch(rhhh.WatchOptions{AutoThetaK: 3, OnDelta: func(d rhhh.Delta) {
		gotTheta = d.Theta
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	m.Tick()
	if want := m.Snapshot().SuggestTheta(3); gotTheta != want {
		t.Fatalf("AutoThetaK used θ=%v, SuggestTheta(3)=%v", gotTheta, want)
	}
}

// TestWatchShardedLifecycleRace churns subscriptions while producers and the
// 1ms driver run, then closes the surface — the -race job exercises every
// cross-goroutine handoff in the watch layer.
func TestWatchShardedLifecycleRace(t *testing.T) {
	s, err := rhhh.NewSharded(rhhh.Config{
		Dims: 2, Granularity: rhhh.Byte,
		Epsilon: 0.05, Delta: 0.01, Seed: 13,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}

	// A long-lived channel subscription, drained until Close closes it.
	longSub, err := s.Watch(rhhh.WatchOptions{Theta: 0.05, Interval: time.Millisecond, Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan int)
	go func() {
		n := 0
		for range longSub.Events() {
			n++
		}
		drained <- n
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < s.Workers(); i++ {
		wg.Add(1)
		go func(sh *rhhh.Worker, seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for n := 0; n < 256; n++ {
					sh.Update(watchAddr(rng), watchAddr(rng))
				}
			}
		}(s.Worker(i), uint64(i))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				opts := rhhh.WatchOptions{Theta: 0.02 + 0.02*float64(g+1), Interval: time.Millisecond}
				if g == 0 {
					opts.OnDelta = func(rhhh.Delta) {}
				}
				sub, err := s.Watch(opts)
				if err != nil {
					return // surface closed under us — fine
				}
				time.Sleep(time.Millisecond)
				sub.Close()
			}
		}(g)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained // channel must be closed by Close
	if _, err := s.Watch(rhhh.WatchOptions{Theta: 0.1}); err == nil {
		t.Fatal("Watch accepted after Close")
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestWatchTickZeroAlloc pins the headline property: an idle tick and a
// busy-but-unchanged tick allocate nothing.
func TestWatchTickZeroAlloc(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{
		Dims: 1, Granularity: rhhh.Byte,
		Epsilon: 0.01, Delta: 0.01, Seed: 4,
	})
	heavy := netip.MustParseAddr("10.1.2.3")
	sub, err := m.Watch(rhhh.WatchOptions{
		Theta:    0.5,
		MinDelta: 1e15, // membership-only events: the set below is stable
		OnDelta:  func(rhhh.Delta) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 200_000; i++ {
		m.Update(heavy, netip.Addr{})
	}
	m.Tick()
	m.Tick()
	if n := testing.AllocsPerRun(100, func() { m.Tick() }); n != 0 {
		t.Fatalf("idle watch tick allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Update(heavy, netip.Addr{})
		m.Tick()
	}); n != 0 {
		t.Fatalf("no-change busy watch tick allocates %v per run", n)
	}
}
