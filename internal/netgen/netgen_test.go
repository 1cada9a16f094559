package netgen

import (
	"testing"
	"time"

	"rhhh/internal/trace"
)

func TestPrebuild(t *testing.T) {
	gen := trace.NewSynthetic(trace.Config{Seed: 1})
	pkts := Prebuild(gen, 1000)
	if len(pkts) != 1000 {
		t.Fatalf("%d packets", len(pkts))
	}
	// Deterministic: same seed, same packets.
	again := Prebuild(trace.NewSynthetic(trace.Config{Seed: 1}), 1000)
	for i := range pkts {
		if pkts[i] != again[i] {
			t.Fatalf("packet %d differs across builds", i)
		}
	}
}

func TestPrebuildStopsAtSourceEnd(t *testing.T) {
	src := &trace.Slice{Packets: make([]trace.Packet, 7)}
	if got := Prebuild(src, 100); len(got) != 7 {
		t.Fatalf("%d packets, want 7", len(got))
	}
}

func TestRunFor(t *testing.T) {
	pkts := make([]trace.Packet, 1000)
	res := RunFor(pkts, 30*time.Millisecond, func(trace.Packet) {})
	if res.Packets == 0 {
		t.Fatal("no packets driven")
	}
	if res.Elapsed < 30*time.Millisecond {
		t.Fatalf("stopped early: %v", res.Elapsed)
	}
}

func TestMppsZeroElapsed(t *testing.T) {
	r := Result{Packets: 100, Elapsed: 0}
	if r.Mpps() != 0 {
		t.Fatal("zero elapsed should give zero Mpps")
	}
}
