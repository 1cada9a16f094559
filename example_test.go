package rhhh_test

import (
	"fmt"
	"net/netip"
	"os"
	"strings"

	"rhhh"
)

// ExampleMonitor demonstrates the core workflow: create a monitor, feed
// packets, query heavy hitters. The stream runs past Psi, so the paper's
// guarantees hold, and the fixed Seed makes the output reproducible.
func ExampleMonitor() {
	m := rhhh.MustNew(rhhh.Config{
		Dims:    1,
		Epsilon: 0.05,
		Delta:   0.05,
		Seed:    1,
	})

	// 60% of the packets come from one /24 (spread over its hosts), the
	// rest from sources spread over the whole address space.
	for i := 0; i < 20000; i++ {
		if i%5 < 3 {
			m.Update(netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}), netip.Addr{})
		} else {
			m.Update(netip.AddrFrom4([4]byte{byte(7 * i), byte(11 * i), byte(13 * i), byte(17 * i)}), netip.Addr{})
		}
	}
	fmt.Println("converged:", m.Converged())

	// Only the /24 passes θ = 50%: the remaining 40% is spread too thin for
	// any other prefix (including *) to add θ·N uncovered traffic.
	for _, hh := range m.HeavyHitters(0.5) {
		fmt.Printf("%s carries about %.0f%% of the packets\n", hh.Text, 100*hh.Upper/float64(m.N()))
	}
	// Output:
	// converged: true
	// 203.0.113.* carries about 60% of the packets
}

// ExamplePsi shows sizing a measurement interval: with the paper's
// parameters (ε = δ = 0.001) and the 2D byte hierarchy (H = 25), RHHH needs
// about 10⁸ packets to converge — §4.1's "about 100 million packets".
func ExamplePsi() {
	psi := rhhh.Psi(0.001, 0.001, 25)
	fmt.Printf("RHHH:    ψ ≈ %.0fM packets\n", psi/1e6)
	fmt.Printf("10-RHHH: ψ ≈ %.0fM packets\n", rhhh.Psi(0.001, 0.001, 250)/1e6)
	// Output:
	// RHHH:    ψ ≈ 90M packets
	// 10-RHHH: ψ ≈ 897M packets
}

// ExampleNewRegistry instruments a sharded monitor with a telemetry
// registry and reads one worker's packet counter from the Prometheus
// exposition after Sync has published it.
func ExampleNewRegistry() {
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 1}, 2)
	if err != nil {
		panic(err)
	}
	reg := rhhh.NewRegistry()
	s.Instrument(reg)
	w := s.Worker(0)
	for i := range 1000 {
		w.Update(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), netip.AddrFrom4([4]byte{192, 0, 2, 1}))
	}
	s.Sync()
	for _, line := range strings.Split(string(reg.Gather(nil)), "\n") {
		if strings.HasPrefix(line, `rhhh_engine_packets_total{worker="0"}`) {
			fmt.Println(line)
		}
	}
	// Output: rhhh_engine_packets_total{worker="0"} 1000
}

// ExampleNewCheckpointer checkpoints a two-worker sharded monitor into a
// directory and restores it into a fresh one, as a restarted process
// would: the restored monitor starts from the combined N.
func ExampleNewCheckpointer() {
	dir, err := os.MkdirTemp("", "rhhh-checkpoint")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 1}

	s, err := rhhh.NewSharded(cfg, 2)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	ck, err := rhhh.NewCheckpointer(s, dir, 0)
	if err != nil {
		panic(err)
	}
	for i := range s.Workers() {
		w := s.Worker(i)
		for j := range 3000 {
			w.Update(netip.AddrFrom4([4]byte{10, byte(i), byte(j >> 8), byte(j)}), netip.AddrFrom4([4]byte{192, 0, 2, 1}))
		}
	}
	s.Sync()
	if _, err := ck.Checkpoint(); err != nil {
		panic(err)
	}

	restarted, err := rhhh.NewSharded(cfg, 2)
	if err != nil {
		panic(err)
	}
	defer restarted.Close()
	ck2, err := rhhh.NewCheckpointer(restarted, dir, 0)
	if err != nil {
		panic(err)
	}
	restored, err := ck2.Restore()
	if err != nil {
		panic(err)
	}
	fmt.Println("restored:", restored, "N:", restarted.N())
	// Output: restored: true N: 6000
}
