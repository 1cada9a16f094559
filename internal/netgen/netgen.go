// Package netgen is the traffic-source substrate standing in for the
// paper's MoonGen hardware generator (§5.2.1): it pre-builds packets from a
// trace source and drives a sink at maximum rate, reporting achieved
// throughput in Mpps. Pre-building keeps generation cost out of the
// measured path, the same reason the paper uses a dedicated generator
// server.
package netgen

import (
	"time"

	"rhhh/internal/trace"
)

// Result reports an offered-load run.
type Result struct {
	Packets uint64
	Elapsed time.Duration
}

// Mpps returns achieved millions of packets per second.
func (r Result) Mpps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Packets) / r.Elapsed.Seconds() / 1e6
}

// Prebuild materializes n packets from src.
func Prebuild(src trace.Source, n int) []trace.Packet {
	out := make([]trace.Packet, 0, n)
	for len(out) < n {
		p, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

// RunFor drives the sink with the prepared packets repeatedly until at
// least d has elapsed, checking the clock once per pass to keep timer
// overhead out of the loop.
func RunFor(packets []trace.Packet, d time.Duration, sink func(trace.Packet)) Result {
	return RunForStop(packets, d, nil, sink)
}

// RunForStop is RunFor with a cooperative stop channel: closing stop ends
// the drive at the next pass boundary — the graceful-drain hook for a
// daemon's signal handler. The check costs one non-blocking select per pass
// over the prebuilt packets, nothing on the per-packet path. stop may be
// nil.
func RunForStop(packets []trace.Packet, d time.Duration, stop <-chan struct{}, sink func(trace.Packet)) Result {
	start := time.Now()
	var n uint64
	for time.Since(start) < d {
		select {
		case <-stop:
			return Result{Packets: n, Elapsed: time.Since(start)}
		default:
		}
		for _, p := range packets {
			sink(p)
		}
		n += uint64(len(packets))
	}
	return Result{Packets: n, Elapsed: time.Since(start)}
}
