package vswitch

import (
	"time"

	"rhhh/internal/core"
)

// CollectorDelta is one standing-query event from Collector.Watch: the
// change in the collector's HHH set between two consecutive ticks. The
// slices are the watch goroutine's reused buffers — valid only during the
// callback; copy them to retain.
type CollectorDelta struct {
	// Seq counts ticks since the watch started; ticks without changes
	// deliver nothing, so subscribers observe gaps.
	Seq uint64
	// N is the stream weight (across every reporting switch) behind the
	// tick's query.
	N uint64
	// Admitted holds prefixes that entered the HHH set; Retired ones that
	// left it, with their last reported estimates; Updated surviving
	// prefixes whose bounds moved at least the configured hysteresis.
	Admitted, Retired, Updated []core.Result[uint64]
}

// CollectorWatch is one standing query on a Collector; Close stops its
// driver goroutine.
type CollectorWatch struct {
	stop chan struct{}
	done chan struct{}
}

// Close stops the watch and waits for its driver goroutine to exit. Call it
// exactly once.
func (w *CollectorWatch) Close() {
	close(w.stop)
	<-w.done
}

// Watch registers a standing HHH query on the collector: every interval a
// driver goroutine evaluates Output(theta) — sample-fed and reporting senders
// alike — and delivers the delta against the previous tick to fn.
// Updated events are gated by the minDelta count-change hysteresis (stream
// units; membership changes always fire). fn runs on the driver goroutine
// and must not block; an idle interval (no new samples or applied reports)
// costs one short-circuited query and delivers nothing. interval defaults to
// 100ms when non-positive.
//
// The distributed deployments get the same event stream as the co-located
// surfaces this way: switches keep streaming samples or reports, and the
// measurement VM pushes HHH deltas instead of being polled.
func (c *Collector) Watch(theta, minDelta float64, interval time.Duration, fn func(CollectorDelta)) *CollectorWatch {
	if !(theta > 0 && theta <= 1) {
		panic("vswitch: theta must be in (0, 1]")
	}
	if !(minDelta >= 0) {
		panic("vswitch: minDelta must be non-negative")
	}
	if fn == nil {
		panic("vswitch: Watch needs a callback")
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	w := &CollectorWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		differ := core.NewDiffer[uint64]()
		var buf []core.Result[uint64]
		var seq uint64
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-ticker.C:
			}
			seq++
			var n uint64
			buf, n = c.OutputInto(buf, theta)
			d := differ.Diff(buf, minDelta)
			if d.Empty() {
				continue
			}
			fn(CollectorDelta{
				Seq:      seq,
				N:        n,
				Admitted: d.Admitted,
				Retired:  d.Retired,
				Updated:  d.Updated,
			})
		}
	}()
	return w
}
