package rhhh_test

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"rhhh"
	"rhhh/internal/baseline/ancestry"
	"rhhh/internal/baseline/mst"
	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
)

func addr4(a, b, c, d byte) netip.Addr {
	return netip.AddrFrom4([4]byte{a, b, c, d})
}

// TestConfigValidation: New, NewSharded, NewWindowed and NewSlidingWindowed
// each return an error, not a panic, for every invalid config — among them
// Backend(2), once the heap backend, and Algorithm(1), once MST — and accept
// a valid one. The windows are far above ψ, so a rejection is the config's.
func TestConfigValidation(t *testing.T) {
	const window = 1 << 40
	ok := func(rhhh.WindowResult) {}
	ctors := []struct {
		name  string
		build func(rhhh.Config) error
	}{
		{"New", func(c rhhh.Config) error { _, err := rhhh.New(c); return err }},
		{"NewSharded", func(c rhhh.Config) error {
			s, err := rhhh.NewSharded(c, 2)
			if err == nil {
				s.Close()
			}
			return err
		}},
		{"NewWindowed", func(c rhhh.Config) error { _, err := rhhh.NewWindowed(c, window, 0.1, ok); return err }},
		{"NewSlidingWindowed", func(c rhhh.Config) error {
			_, err := rhhh.NewSlidingWindowed(c, window, 2, 0.1, ok)
			return err
		}},
	}
	bad := []rhhh.Config{
		{},                                                   // no dims, no epsilon
		{Dims: 3, Epsilon: 0.1, Delta: 0.1},                  // dims
		{Dims: 1, Epsilon: 0, Delta: 0.1},                    // epsilon
		{Dims: 1, Epsilon: 0.1, Delta: 0},                    // delta
		{Dims: 1, Epsilon: 0.1, Delta: 0.1, V: 2},            // V < H
		{Dims: 1, Epsilon: 0.1, Delta: 0.1, R: -1},           // R
		{Dims: 1, Epsilon: 0.1, Delta: 0.1, Granularity: 99}, // granularity
		{Dims: 1, Epsilon: 0.1, Delta: 0.1, Backend: 2},      // the old heap backend
		{Dims: 1, Epsilon: 0.1, Delta: 0.1, Backend: 99},     // backend
		{Dims: 1, Epsilon: 0.1, Delta: 0.1, Algorithm: 1},    // the old MST
		{Dims: 1, Epsilon: 0.1, Delta: 0.1, Algorithm: 99},   // algorithm
	}
	for _, ctor := range ctors {
		if err := ctor.build(rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1}); err != nil {
			t.Errorf("%s rejected a valid config: %v", ctor.name, err)
		}
		for i, cfg := range bad {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s panicked on config %d (%+v): %v", ctor.name, i, cfg, r)
					}
				}()
				if ctor.build(cfg) == nil {
					t.Errorf("%s accepted config %d: %+v", ctor.name, i, cfg)
				}
			}()
		}
	}
}

func TestHierarchySizes(t *testing.T) {
	cases := []struct {
		cfg  rhhh.Config
		want int
	}{
		{rhhh.Config{Dims: 1, Epsilon: 0.01, Delta: 0.01}, 5},
		{rhhh.Config{Dims: 1, Granularity: rhhh.Bit, Epsilon: 0.01, Delta: 0.01}, 33},
		{rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01}, 25},
		{rhhh.Config{Dims: 1, IPv6: true, Epsilon: 0.01, Delta: 0.01}, 17},
		{rhhh.Config{Dims: 2, IPv6: true, Epsilon: 0.01, Delta: 0.01}, 289},
	}
	for _, c := range cases {
		m := rhhh.MustNew(c.cfg)
		if m.H() != c.want {
			t.Errorf("H = %d, want %d for %+v", m.H(), c.want, c.cfg)
		}
	}
}

func TestEndToEnd1D(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.02, Delta: 0.05, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	n := int(m.Psi()) + 100000
	for i := 0; i < n; i++ {
		var src netip.Addr
		if rng.Intn(10) < 4 { // 40%: hosts inside 181.7.20.0/24
			src = addr4(181, 7, 20, byte(rng.Intn(256)))
		} else {
			src = addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		m.Update(src, netip.Addr{})
	}
	if !m.Converged() {
		t.Fatal("not converged past ψ")
	}
	hits := m.HeavyHitters(0.2)
	found := false
	for _, h := range hits {
		if h.Src == netip.PrefixFrom(addr4(181, 7, 20, 0), 24) {
			found = true
			if h.Text != "181.7.20.*" {
				t.Errorf("text = %q", h.Text)
			}
			if h.Upper < 0.3*float64(n) || h.Lower > 0.5*float64(n) {
				t.Errorf("bounds [%v, %v] for a 40%% aggregate of %d", h.Lower, h.Upper, n)
			}
			if h.Level != 1 {
				t.Errorf("level = %d, want 1", h.Level)
			}
		}
	}
	if !found {
		t.Fatalf("181.7.20.* missing from %v", hits)
	}
}

// TestEndToEnd2DAllAlgorithms feeds one 2D DDoS stream to RHHH through the
// public Monitor and to the paper's three deterministic baselines, built
// straight from internal/baseline as hhhbench builds them: each must report
// the (*, victim) aggregate.
func TestEndToEnd2DAllAlgorithms(t *testing.T) {
	victim := addr4(198, 51, 100, 7)
	stream := func(n int, update func(src, dst netip.Addr)) {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < n; i++ {
			src := addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			dst := victim
			if rng.Intn(10) >= 3 { // 30%: DDoS onto one victim host
				dst = addr4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			update(src, dst)
		}
	}
	t.Run("RHHH", func(t *testing.T) {
		m := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 3})
		stream(int(m.Psi())+100000, m.Update)
		hits := m.HeavyHitters(0.2)
		for _, h := range hits {
			if h.Dst == netip.PrefixFrom(victim, 32) && h.Src.Bits() == 0 {
				if !strings.Contains(h.Text, "198.51.100.7") {
					t.Errorf("text = %q", h.Text)
				}
				return
			}
		}
		t.Fatalf("missed the (*, victim) aggregate; got %v", hits)
	})

	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	u32 := func(a netip.Addr) uint32 { b := a.As4(); return binary.BigEndian.Uint32(b[:]) }
	for _, b := range []struct {
		name string
		alg  interface {
			Update(uint64)
			Output(float64) []core.Result[uint64]
		}
	}{
		{"MST", mst.New(dom, 0.02)},
		{"full-ancestry", ancestry.New(dom, 0.02, ancestry.Full)},
		{"partial-ancestry", ancestry.New(dom, 0.02, ancestry.Partial)},
	} {
		t.Run(b.name, func(t *testing.T) {
			stream(100000, func(src, dst netip.Addr) { b.alg.Update(hierarchy.Pack2D(u32(src), u32(dst))) })
			out := b.alg.Output(0.2)
			for _, r := range out {
				node := dom.Node(r.Node)
				if _, d := hierarchy.Unpack2D(r.Key); node.SrcBits == 0 && node.DstBits == 32 && d == u32(victim) {
					if text := dom.Format(r.Key, r.Node); !strings.Contains(text, "198.51.100.7") {
						t.Errorf("text = %q", text)
					}
					return
				}
			}
			t.Fatalf("missed the (*, victim) aggregate; got %v", out)
		})
	}
}

func TestIPv6Monitor(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{
		Dims: 1, IPv6: true, Epsilon: 0.05, Delta: 0.05, Seed: 5,
	})
	rng := rand.New(rand.NewSource(6))
	heavy := netip.MustParseAddr("2001:db8::")
	n := int(m.Psi()) + 50000
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			// Hosts inside 2001:db8::/32.
			b := heavy.As16()
			for j := 4; j < 16; j++ {
				b[j] = byte(rng.Intn(256))
			}
			m.Update(netip.AddrFrom16(b), netip.Addr{})
		} else {
			var b [16]byte
			rng.Read(b[:])
			b[0] = 0x30 // keep out of 2001::/16
			m.Update(netip.AddrFrom16(b), netip.Addr{})
		}
	}
	hits := m.HeavyHitters(0.3)
	want := netip.PrefixFrom(heavy, 32)
	found := false
	for _, h := range hits {
		if h.Src == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("2001:db8::/32 missing from %v", hits)
	}
}

// TestWeightedUpdates: N counts weight, not packets, and an address
// carrying 90% of the weight on half the packets is reported once the stream
// has passed ψ packets.
func TestWeightedUpdates(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.05, Delta: 0.05, Seed: 8})
	rng := rand.New(rand.NewSource(9))
	pairs := int(m.Psi())
	for i := 0; i < pairs; i++ {
		m.UpdateWeighted(addr4(1, 1, 1, 1), netip.Addr{}, 900)
		m.UpdateWeighted(addr4(2, 2, byte(rng.Intn(256)), byte(rng.Intn(256))), netip.Addr{}, 100)
	}
	if m.N() != uint64(pairs)*1000 {
		t.Fatalf("N = %d, want %d", m.N(), pairs*1000)
	}
	hits := m.HeavyHitters(0.5)
	if len(hits) == 0 {
		t.Fatal("no heavy hitters for a 90% flow")
	}
	found := false
	for _, h := range hits {
		if h.Src == netip.PrefixFrom(addr4(1, 1, 1, 1), 32) {
			found = true
		}
	}
	if !found {
		t.Fatal("90%-weight address missing")
	}
}

func TestResetAndReuse(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1, Seed: 7})
	for i := 0; i < 1000; i++ {
		m.Update(addr4(9, 9, 9, 9), netip.Addr{})
	}
	m.Reset()
	if m.N() != 0 {
		t.Fatalf("N = %d after reset", m.N())
	}
	if hh := m.HeavyHitters(0.5); len(hh) != 0 {
		t.Fatalf("stale output after reset: %v", hh)
	}
}

func TestWrongFamilyPanics(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1})
	defer func() {
		if recover() == nil {
			t.Fatal("IPv6 address accepted by IPv4 monitor")
		}
	}()
	m.Update(netip.MustParseAddr("2001:db8::1"), netip.Addr{})
}

func TestBadThetaPanics(t *testing.T) {
	m := rhhh.MustNew(rhhh.Config{Dims: 1, Epsilon: 0.1, Delta: 0.1})
	defer func() {
		if recover() == nil {
			t.Fatal("theta 0 accepted")
		}
	}()
	m.HeavyHitters(0)
}

func TestPsiHelper(t *testing.T) {
	// ψ(ε=0.001, δ=0.001, V=25) ≈ 1e8 (§4.1's "about 100 million packets").
	psi := rhhh.Psi(0.001, 0.001, 25)
	if psi < 5e7 || psi > 2e8 {
		t.Fatalf("Psi = %v, want ≈1e8", psi)
	}
	m := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.001, Delta: 0.001})
	if got := m.Psi(); got != psi {
		t.Fatalf("Monitor.Psi %v != Psi helper %v", got, psi)
	}
}

func TestTenRHHHNaming(t *testing.T) {
	// The paper's 10-RHHH is V = 10·H.
	m := rhhh.MustNew(rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, V: 250})
	if m.V() != 250 || m.H() != 25 {
		t.Fatalf("V=%d H=%d", m.V(), m.H())
	}
	if r := m.Psi() / rhhh.Psi(0.01, 0.01, 25); r < 9.99 || r > 10.01 {
		t.Fatalf("10-RHHH ψ ratio = %v", r)
	}
}
