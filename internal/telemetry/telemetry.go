// Package telemetry is the zero-allocation metrics layer for the RHHH
// service surfaces. It follows the shared-nothing ownership model of the
// ingest path (see sharded.go): hot-path counters are plain uint64 fields
// owned by a single goroutine, and only at an existing publication boundary
// (worker snapshot publish, watch tick, reporter tick, window flush) are
// they stored into atomic publication cells. Scrapes read exclusively from
// those cells — or from closures over already-synchronized state — so the
// exposition path never takes a lock the hot path can contend on, and the
// hot path never executes an atomic read-modify-write.
//
// Every entry point is nil-safe: a nil *Registry (telemetry.Disabled) makes
// instrumentation a no-op, so an uninstrumented path pays one predictable
// branch and nothing else.
package telemetry

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
)

// Cell is a published metric value: one atomic word, written by the owning
// goroutine at publication boundaries and read by scrapers. Cells are not
// padded — they are written a few times per second at most, so false
// sharing is irrelevant, and stat blocks pack dozens of them.
type Cell struct{ v atomic.Uint64 }

// Store publishes v. Called by the owner (or under the owner's lock).
func (c *Cell) Store(v uint64) { c.v.Store(v) }

// Add atomically adds d. Intended for mutex-serialized slow paths (query
// bookkeeping, tick accounting) — never for the packet path.
func (c *Cell) Add(d uint64) { c.v.Add(d) }

// Load returns the last published value. Safe from any goroutine.
func (c *Cell) Load() uint64 { return c.v.Load() }

// Counter is a hot-path counter: a plain uint64 the owning goroutine
// increments without synchronization, plus the cell it publishes through.
// Inc/Add/Publish must only be called by the owner; Value may be called by
// anyone and sees the last published state.
type Counter struct {
	n   uint64
	pub Cell
}

// Inc adds 1 to the live count. Owner only.
func (c *Counter) Inc() { c.n++ }

// Add adds d to the live count. Owner only.
func (c *Counter) Add(d uint64) { c.n += d }

// Live returns the unpublished owner-side count. Owner only.
func (c *Counter) Live() uint64 { return c.n }

// Publish stores the live count into the publication cell. Owner only.
func (c *Counter) Publish() { c.pub.Store(c.n) }

// Value returns the last published count. Safe from any goroutine.
func (c *Counter) Value() uint64 { return c.pub.Load() }

// Cumulative log2 histogram geometry: finite bucket i holds samples with
// duration ≤ 1024<<i nanoseconds, i.e. boundaries run 1.024 µs .. ~2.15 s;
// anything slower lands in the implicit +Inf bucket. This spans a watch
// tick (~1 µs idle, ~123 µs busy) through a multi-second window merge.
const (
	// HistBuckets is the number of finite histogram buckets.
	HistBuckets = 22

	histRingBits = 8
	histRingLen  = 1 << histRingBits
	histRingMask = histRingLen - 1
)

// BucketBound returns the inclusive upper bound of finite bucket i, in
// nanoseconds.
func BucketBound(i int) uint64 { return 1024 << uint(i) }

// bucketOf maps a duration in nanoseconds to its finite bucket, or
// HistBuckets for the +Inf overflow.
func bucketOf(ns uint64) int {
	if ns <= 1024 {
		return 0
	}
	i := bits.Len64(ns-1) - 10
	if i >= HistBuckets {
		return HistBuckets
	}
	return i
}

// Histogram is a ring-buffered latency histogram. Observe is two plain
// stores by the owning goroutine (raw nanosecond sample into a power-of-two
// ring); the log2 bucketing happens when the ring fills or at Publish, and
// the bucketed totals are then stored into atomic cells for scrapers. As
// with Counter, all methods except the published readers are owner-only.
type Histogram struct {
	ring  [histRingLen]uint64
	wpos  uint64
	rpos  uint64
	count uint64
	sumNs uint64
	cnt   [HistBuckets]uint64

	// The published cells form one block under a seqlock: Publish makes
	// seq odd, stores the cells, then makes it even again, and load retries
	// until it copied every cell between two equal even reads of seq. A
	// scrape therefore never mixes two publications, so the rendered
	// buckets stay monotone and +Inf equals _count.
	seq      Cell
	pubCnt   [HistBuckets]Cell
	pubCount Cell
	pubSum   Cell
}

// histView is one publication of a Histogram, copied out by load.
type histView struct {
	cnt        [HistBuckets]uint64
	count, sum uint64
}

// Observe records one duration. Owner only.
func (h *Histogram) Observe(d time.Duration) {
	h.ring[h.wpos&histRingMask] = uint64(d)
	h.wpos++
	if h.wpos-h.rpos == histRingLen {
		h.drain()
	}
}

// ObserveSince records time elapsed since t0. Owner only.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// drain buckets every pending ring sample; samples beyond the last finite
// bucket count only toward count (the +Inf bucket).
func (h *Histogram) drain() {
	for ; h.rpos != h.wpos; h.rpos++ {
		ns := h.ring[h.rpos&histRingMask]
		if b := bucketOf(ns); b < HistBuckets {
			h.cnt[b]++
		}
		h.sumNs += ns
		h.count++
	}
}

// Publish drains the ring and stores the bucketed totals into the
// publication cells. Owner only.
func (h *Histogram) Publish() {
	h.drain()
	seq := h.seq.Load()
	h.seq.Store(seq + 1)
	for i := range h.cnt {
		h.pubCnt[i].Store(h.cnt[i])
	}
	h.pubSum.Store(h.sumNs)
	h.pubCount.Store(h.count)
	h.seq.Store(seq + 2)
}

// load copies the last complete publication into v. Safe from any
// goroutine; it yields while the owner is mid-publish.
func (h *Histogram) load(v *histView) {
	for {
		seq := h.seq.Load()
		if seq&1 == 0 {
			for i := range v.cnt {
				v.cnt[i] = h.pubCnt[i].Load()
			}
			v.sum = h.pubSum.Load()
			v.count = h.pubCount.Load()
			if h.seq.Load() == seq {
				return
			}
		}
		runtime.Gosched()
	}
}

// Count returns the published sample count. Safe from any goroutine.
func (h *Histogram) Count() uint64 { return h.pubCount.Load() }

// SumSeconds returns the published sum of all samples in seconds. Safe
// from any goroutine.
func (h *Histogram) SumSeconds() float64 { return float64(h.pubSum.Load()) / 1e9 }
