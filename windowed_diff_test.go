package rhhh_test

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"rhhh"
	"rhhh/internal/stats"
)

// windowRef rebuilds what a Windowed reads from standalone monitors:
// window i is a fresh monitor seeded Seed + i·φ64 fed window i's
// sub-stream, and a read over several windows combines their snapshots with
// Snapshot.Merge, oldest first.
type windowRef struct {
	cfg  rhhh.Config
	size uint64
	k    int
	open *rhhh.Monitor    // the open window
	done []*rhhh.Snapshot // every completed window, in order
}

func newWindowRef(cfg rhhh.Config, size uint64, k int) *windowRef {
	r := &windowRef{cfg: cfg, size: size, k: k}
	r.next()
	return r
}

// next opens window len(r.done) on a fresh monitor.
func (r *windowRef) next() {
	c := r.cfg
	c.Seed = r.cfg.Seed + uint64(len(r.done))*0x9e3779b97f4a7c15
	r.open = rhhh.MustNew(c)
}

// update feeds one packet and closes the open window when its weight
// reaches the window size, as the Windowed does after the same packet.
func (r *windowRef) update(src, dst netip.Addr, wgt uint64) {
	r.open.UpdateWeighted(src, dst, wgt)
	if r.open.N() >= r.size {
		r.done = append(r.done, r.open.Snapshot())
		r.next()
	}
}

// mergeAll combines snaps over disjoint sub-streams, oldest first.
func mergeAll(t testing.TB, snaps []*rhhh.Snapshot) *rhhh.Snapshot {
	t.Helper()
	u, err := snaps[0].Merge(snaps[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// result is the WindowResult the Windowed must deliver for window i.
func (r *windowRef) result(t testing.TB, i int, theta, psi float64) rhhh.WindowResult {
	t.Helper()
	lo := max(0, i-r.k+1)
	u := mergeAll(t, r.done[lo:i+1])
	return rhhh.WindowResult{
		Index:        uint64(i),
		N:            u.N(),
		SubWindows:   i + 1 - lo,
		Converged:    float64(u.N()) >= psi,
		HeavyHitters: u.HeavyHitters(theta),
	}
}

// query is the on-demand answer: the live monitor when tumbling, else the
// last k−1 completed windows plus a snapshot of the open one.
func (r *windowRef) query(t testing.TB, theta float64) []rhhh.HeavyHitter {
	t.Helper()
	if r.k == 1 {
		return r.open.HeavyHitters(theta)
	}
	lo := max(0, len(r.done)-(r.k-1))
	snaps := append(slices.Clone(r.done[lo:]), r.open.Snapshot())
	return mergeAll(t, snaps).HeavyHitters(theta)
}

// TestSlidingWindowDifferential pins every read a Windowed makes to
// standalone per-window monitors combined with Snapshot.Merge: each
// delivered WindowResult (Index, N, SubWindows, Converged and every
// HeavyHitter field, bounds by their bits), an on-demand HeavyHitters taken
// after every batch (mostly mid-sub-window), and a watch subscription whose
// deltas, replayed, give each window's set. Batches of random length
// straddle window boundaries.
func TestSlidingWindowDifferential(t *testing.T) {
	type tc struct {
		name     string
		cfg      rhhh.Config
		k        int
		theta    float64
		weighted bool
		belowN   bool // the covered window is below N*: every monitored key qualifies
	}
	var cases []tc
	for _, dims := range []int{1, 2} {
		for _, be := range []rhhh.Backend{rhhh.StreamSummary, rhhh.CuckooHeavyKeeper} {
			for _, k := range []int{1, 2, 4} {
				cases = append(cases, tc{
					name:  fmt.Sprintf("%dD-%v-k%d", dims, be, k),
					cfg:   rhhh.Config{Dims: dims, Epsilon: 0.05, Delta: 0.05, Backend: be, Seed: uint64(100*dims + 10*k)},
					k:     k,
					theta: 0.1,
				})
			}
		}
	}
	cases = append(cases,
		tc{name: "1D-IPv6-k2", cfg: rhhh.Config{Dims: 1, IPv6: true, Epsilon: 0.05, Delta: 0.05, Seed: 7}, k: 2, theta: 0.1},
		tc{name: "1D-IPv6-chk-k2", cfg: rhhh.Config{Dims: 1, IPv6: true, Epsilon: 0.05, Delta: 0.05, Backend: rhhh.CuckooHeavyKeeper, Seed: 10}, k: 2, theta: 0.1},
		// The 2D IPv6 lattice has 289 nodes: ε = δ = 0.5 keeps ψ, and with it
		// the stream, short enough for a per-batch reference read.
		tc{name: "2D-IPv6-chk-k2", cfg: rhhh.Config{Dims: 2, IPv6: true, Epsilon: 0.5, Delta: 0.5, Backend: rhhh.CuckooHeavyKeeper, Seed: 11}, k: 2, theta: 0.25},
		tc{name: "2D-weighted-k2", cfg: rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 8}, k: 2, theta: 0.1, weighted: true},
		tc{name: "2D-belowNstar-k4", cfg: rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 9}, k: 4, theta: 0.02, belowN: true},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			psi := rhhh.MustNew(c.cfg).Psi()
			size := uint64(math.Ceil(psi/float64(c.k))) + 500
			if c.weighted {
				size *= 4 // weights average ~4.5
			}
			if c.belowN {
				// N* solves 2·Z(δ)·√(N·V) = θN: below it the sampling
				// correction alone clears θN for every monitored key.
				z := 2 * stats.Z(c.cfg.Delta)
				nStar := z * z * float64(rhhh.MustNew(c.cfg).V()) / (c.theta * c.theta)
				if float64(size)*float64(c.k)*2 > nStar {
					t.Fatalf("covered window %d is not below N* = %.0f", size*uint64(c.k), nStar)
				}
			}

			var got []rhhh.WindowResult
			var events []rhhh.Delta
			var marks []int // events delivered up to each window's callback
			w, err := rhhh.NewSlidingWindowed(c.cfg, size, c.k, c.theta, func(r rhhh.WindowResult) {
				got = append(got, r)
				marks = append(marks, len(events))
			})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, err := w.Watch(rhhh.WatchOptions{Theta: c.theta, OnDelta: func(d rhhh.Delta) {
				d.Admitted = slices.Clone(d.Admitted)
				d.Retired = slices.Clone(d.Retired)
				d.Updated = slices.Clone(d.Updated)
				events = append(events, d)
			}}); err != nil {
				t.Fatal(err)
			}
			ref := newWindowRef(c.cfg, size, c.k)

			rng := rand.New(rand.NewSource(int64(c.cfg.Seed)))
			addr := func() netip.Addr {
				if c.cfg.IPv6 {
					var b [16]byte
					b[0], b[1] = 0x20, 0x01
					b[2], b[7], b[15] = byte(rng.Intn(4)), byte(rng.Intn(3)), byte(rng.Intn(64))
					return netip.AddrFrom16(b)
				}
				return addr4(byte(10+rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(3)), byte(rng.Intn(64)))
			}
			windows := c.k + 3
			var srcs, dsts []netip.Addr
			var ws []uint64
			for queries := 0; len(ref.done) < windows; queries++ {
				n := 200 + rng.Intn(3000)
				srcs, dsts, ws = srcs[:0], dsts[:0], ws[:0]
				for range n {
					src, dst, wgt := addr(), netip.Addr{}, uint64(1)
					if c.cfg.Dims == 2 {
						dst = addr()
					}
					if c.weighted {
						wgt = uint64(rng.Intn(9)) // zero weights included
					}
					srcs, dsts, ws = append(srcs, src), append(dsts, dst), append(ws, wgt)
					ref.update(src, dst, wgt)
				}
				bd := dsts
				if c.cfg.Dims == 1 {
					bd = nil
				}
				if c.weighted {
					w.UpdateWeightedBatch(srcs, bd, ws)
				} else {
					w.UpdateBatch(srcs, bd)
				}
				hhBitsEqual(t, fmt.Sprintf("on-demand query %d (%d windows completed)", queries, len(ref.done)),
					w.HeavyHitters(c.theta), ref.query(t, c.theta))
			}
			w.Sync()

			if len(got) != len(ref.done) {
				t.Fatalf("%d windows delivered, reference completed %d", len(got), len(ref.done))
			}
			state := replaySet{}
			next := 0
			for i, r := range got {
				want := ref.result(t, i, c.theta, psi)
				if r.Index != want.Index || r.N != want.N || r.SubWindows != want.SubWindows || r.Converged != want.Converged {
					t.Fatalf("window %d: Index %d N %d SubWindows %d Converged %v, want %d %d %d %v",
						i, r.Index, r.N, r.SubWindows, r.Converged, want.Index, want.N, want.SubWindows, want.Converged)
				}
				hhBitsEqual(t, fmt.Sprintf("window %d", i), r.HeavyHitters, want.HeavyHitters)
				for ; next < marks[i]; next++ {
					if events[next].N != r.N {
						t.Fatalf("window %d: delta N = %d, want %d", i, events[next].N, r.N)
					}
					state.apply(t, events[next])
				}
				state.mustEqualFull(t, want.HeavyHitters, fmt.Sprintf("window %d watch replay", i))
			}
		})
	}
}
