// IPv6 hierarchies: the paper's §1 argues that "the transition to IPv6 is
// expected to increase hierarchies' sizes and render existing approaches
// even slower" — RHHH's update cost is independent of H. This example runs
// the same workload through IPv6 monitors of growing hierarchy size (bytes,
// H = 17; nibbles, H = 33; bits, H = 129) and prints each one's update
// throughput and findings. H grows 7.6× and the rate drops by a fraction
// (the larger lattice holds more counters), where an O(H) update would
// slow down about as much as H grows. What grows with H is ψ, the stream
// length the guarantees need. For the deterministic O(H) baselines on the
// same comparison, run go run ./cmd/hhhbench -fig 5.
//
// Run with: go run ./examples/ipv6
package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"rhhh"
)

func main() {
	const n = 2_000_000
	rng := rand.New(rand.NewSource(2001))

	// Workload: half the traffic concentrates inside 2001:db8::/32 (an
	// "AS-level" aggregate), the rest is spread uniformly.
	packets := make([]netip.Addr, n)
	heavy := netip.MustParseAddr("2001:db8::").As16()
	for i := range packets {
		var b [16]byte
		if rng.Intn(2) == 0 {
			b = heavy
			for j := 4; j < 16; j++ {
				b[j] = byte(rng.Intn(256))
			}
		} else {
			rng.Read(b[:])
			b[0] = 0x30
		}
		packets[i] = netip.AddrFrom16(b)
	}

	for _, g := range []struct {
		name string
		gran rhhh.Granularity
	}{{"bytes", rhhh.Byte}, {"nibbles", rhhh.Nibble}, {"bits", rhhh.Bit}} {
		mon := rhhh.MustNew(rhhh.Config{
			Dims: 1, IPv6: true, Granularity: g.gran,
			Epsilon: 0.005, Delta: 0.01, Seed: 3,
		})
		start := time.Now()
		for _, a := range packets {
			mon.Update(a, netip.Addr{})
		}
		elapsed := time.Since(start)
		mpps := float64(n) / elapsed.Seconds() / 1e6

		fmt.Printf("%-8s H=%-3d  %6.2f Mpps  (ψ=%.2g, converged=%v)\n",
			g.name, mon.H(), mpps, mon.Psi(), mon.Converged())
		for _, hh := range mon.HeavyHitters(0.25) {
			fmt.Printf("  %-28s ≈ %4.1f%% of traffic\n",
				hh.Src, 100*hh.Upper/float64(mon.N()))
		}
		fmt.Println()
	}
}
