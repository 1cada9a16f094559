package trace

import (
	"math"
	"sort"

	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
)

// Config describes a synthetic workload. The model stands in for the paper's
// CAIDA backbone traces (see the README section "What stands in for the
// paper's testbed"): addresses come from a hierarchical Pareto prefix tree,
// so traffic mass concentrates at every aggregation level the way popular
// ASes and subnets concentrate real backbone traffic; packets belong to
// Zipf-sized flows; and optional planted aggregates inject known
// hierarchical heavy hitters (e.g. a DDoS victim prefix).
type Config struct {
	// Seed makes the whole trace reproducible.
	Seed uint64
	// Flows is the flow universe size (default 1<<20).
	Flows int
	// FlowAlpha is the Zipf exponent of flow sizes (default 1.0).
	FlowAlpha float64
	// SrcAlpha and DstAlpha are the per-level Pareto exponents of the
	// source and destination prefix trees (default 0.8 and 0.9); larger
	// means more concentration in few subtrees.
	SrcAlpha, DstAlpha float64
	// V6 generates IPv6 addresses (16 hierarchical byte levels).
	V6 bool
	// Aggregates plant known hierarchical heavy hitters.
	Aggregates []Aggregate
	// GapNanos is the synthetic inter-arrival time (default 67ns ≈ the
	// 14.88 Mpps line rate of the paper's OVS testbed).
	GapNanos int64
}

// Aggregate plants a traffic aggregate: Fraction of all packets carry a
// source within (Src, SrcBits) and a destination within (Dst, DstBits);
// zero bits leave that dimension fully random. Spread controls how many
// distinct flows the aggregate contains (1 = a single heavy flow; large =
// a DDoS-style aggregate of many small flows).
type Aggregate struct {
	Fraction float64
	Src      hierarchy.Addr
	SrcBits  int
	Dst      hierarchy.Addr
	DstBits  int
	Spread   int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Flows == 0 {
		out.Flows = 1 << 20
	}
	if out.FlowAlpha == 0 {
		out.FlowAlpha = 1.0
	}
	if out.SrcAlpha == 0 {
		out.SrcAlpha = 0.8
	}
	if out.DstAlpha == 0 {
		out.DstAlpha = 0.9
	}
	if out.GapNanos == 0 {
		out.GapNanos = 67
	}
	return out
}

// Profile returns the named workload profile. The four profiles stand in
// for the paper's four CAIDA traces (Chicago 2015/2016, San Jose 2013/2014):
// same model, different seeds and skews, so experiments show the same
// qualitative behaviour across "traces" as the paper's Figures 2–5 do.
func Profile(name string) Config {
	switch name {
	case "chicago15":
		return Config{Seed: 0xC51C, SrcAlpha: 0.85, DstAlpha: 0.95, FlowAlpha: 1.05}
	case "chicago16":
		return Config{Seed: 0xC51D, SrcAlpha: 0.80, DstAlpha: 0.90, FlowAlpha: 1.00}
	case "sanjose13":
		return Config{Seed: 0x5A13, SrcAlpha: 0.75, DstAlpha: 1.00, FlowAlpha: 0.95}
	case "sanjose14":
		return Config{Seed: 0x5A14, SrcAlpha: 0.90, DstAlpha: 0.85, FlowAlpha: 1.10}
	default:
		panic("trace: unknown profile " + name)
	}
}

// ProfileNames lists the built-in CAIDA stand-in profiles.
func ProfileNames() []string {
	return []string{"chicago15", "chicago16", "sanjose13", "sanjose14"}
}

// Synthetic is a seeded, infinite packet source implementing Source.
type Synthetic struct {
	cfg      Config
	rng      *fastrand.Source
	srcModel addrModel
	dstModel addrModel
	flowZipf zipfSampler
	aggCum   []float64
	ts       int64
}

// NewSynthetic builds a generator from cfg.
func NewSynthetic(cfg Config) *Synthetic {
	c := cfg.withDefaults()
	levels := 4
	if c.V6 {
		levels = 16
	}
	s := &Synthetic{
		cfg:      c,
		rng:      fastrand.New(c.Seed),
		srcModel: newAddrModel(c.Seed^0x517c, c.SrcAlpha, levels),
		dstModel: newAddrModel(c.Seed^0xd57a, c.DstAlpha, levels),
		flowZipf: newZipfSampler(c.Flows, c.FlowAlpha),
	}
	total := 0.0
	for _, a := range c.Aggregates {
		if a.Fraction < 0 {
			panic("trace: negative aggregate fraction")
		}
		total += a.Fraction
		s.aggCum = append(s.aggCum, total)
	}
	if total > 1 {
		panic("trace: aggregate fractions exceed 1")
	}
	return s
}

// Next returns the next synthetic packet; ok is always true (wrap with
// Limit for finite streams).
func (s *Synthetic) Next() (Packet, bool) {
	s.ts += s.cfg.GapNanos
	u := s.rng.Float64()
	for i, cum := range s.aggCum {
		if u < cum {
			return s.aggregatePacket(i), true
		}
	}
	return s.backgroundPacket(), true
}

// backgroundPacket draws a Zipf flow id and derives the flow's attributes
// deterministically from it, so recurring flow ids repeat their 5-tuple.
func (s *Synthetic) backgroundPacket() Packet {
	flowID := s.flowZipf.sample(s.rng)
	fr := fastrand.New(mix64(s.cfg.Seed ^ uint64(flowID)*0x9e3779b97f4a7c15))
	p := Packet{
		TsNanos: s.ts,
		SrcIP:   s.srcModel.sample(fr),
		DstIP:   s.dstModel.sample(fr),
		V6:      s.cfg.V6,
	}
	fillFlowAttrs(&p, fr)
	return p
}

// aggregatePacket draws from planted aggregate i.
func (s *Synthetic) aggregatePacket(i int) Packet {
	a := s.cfg.Aggregates[i]
	spread := a.Spread
	if spread <= 0 {
		spread = 1
	}
	sub := s.rng.Uint64n(uint64(spread))
	fr := fastrand.New(mix64(s.cfg.Seed ^ 0xa99a ^ uint64(i)<<32 ^ sub))
	src := s.srcModel.sample(fr)
	dst := s.dstModel.sample(fr)
	p := Packet{
		TsNanos: s.ts,
		SrcIP:   overlayPrefix(a.Src, a.SrcBits, src),
		DstIP:   overlayPrefix(a.Dst, a.DstBits, dst),
		V6:      s.cfg.V6,
	}
	fillFlowAttrs(&p, fr)
	return p
}

// overlayPrefix keeps the top bits of prefix and the remaining bits of fill.
func overlayPrefix(prefix hierarchy.Addr, bits int, fill hierarchy.Addr) hierarchy.Addr {
	if bits <= 0 {
		return fill
	}
	if bits >= 128 {
		return prefix
	}
	hi := prefix.Mask(bits)
	masked := maskOut(fill, bits)
	return hierarchy.Addr{Hi: hi.Hi | masked.Hi, Lo: hi.Lo | masked.Lo}
}

// maskOut zeroes the top bits of a.
func maskOut(a hierarchy.Addr, bits int) hierarchy.Addr {
	m := hierarchy.Addr{Hi: ^uint64(0), Lo: ^uint64(0)}.Mask(bits)
	return hierarchy.Addr{Hi: a.Hi &^ m.Hi, Lo: a.Lo &^ m.Lo}
}

// fillFlowAttrs derives protocol, ports and length from the flow's RNG,
// with a realistic mix: mostly TCP, popular destination ports, bimodal
// packet sizes.
func fillFlowAttrs(p *Packet, fr *fastrand.Source) {
	switch fr.Uint64n(100) {
	case 0, 1: // 2% ICMP
		if p.V6 {
			p.Proto = ProtoICMPv6
		} else {
			p.Proto = ProtoICMP
		}
	case 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12: // 11% UDP
		p.Proto = ProtoUDP
	default:
		p.Proto = ProtoTCP
	}
	if p.Proto == ProtoTCP || p.Proto == ProtoUDP {
		wellKnown := [...]uint16{80, 443, 53, 123, 25, 22, 8080, 3389}
		p.DstPort = wellKnown[fr.Uint64n(uint64(len(wellKnown)))]
		p.SrcPort = uint16(32768 + fr.Uint64n(28232))
	}
	switch fr.Uint64n(10) {
	case 0, 1, 2, 3: // 40% minimum-size
		p.Length = 64
	case 4, 5, 6: // 30% full-size
		p.Length = 1500
	default: // 30% mid
		p.Length = 64 + int(fr.Uint64n(1400))
	}
}

// addrModel is a lazily evaluated hierarchical Pareto prefix tree: at each
// byte level the child octet is drawn from a Zipf-like rank distribution,
// and ranks map to octets through a per-node bijection, so different
// subtrees concentrate on different children. The same (seed, prefix) always
// yields the same distribution — no tree is materialized.
type addrModel struct {
	seed   uint64
	levels int
	cum    []float64 // shared 256-entry cumulative rank distribution
}

func newAddrModel(seed uint64, alpha float64, levels int) addrModel {
	cum := make([]float64, 256)
	total := 0.0
	for i := 0; i < 256; i++ {
		total += math.Pow(float64(i+1), -alpha)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return addrModel{seed: seed, levels: levels, cum: cum}
}

// sample draws one address using randomness from r.
func (m addrModel) sample(r *fastrand.Source) hierarchy.Addr {
	var a hierarchy.Addr
	var acc uint64 = 1 // prefix accumulator; 1 guards leading zero bytes
	for lvl := 0; lvl < m.levels; lvl++ {
		u := r.Float64()
		rank := sort.SearchFloat64s(m.cum, u)
		if rank > 255 {
			rank = 255
		}
		nodeH := mix64(m.seed ^ acc)
		child := permute8(uint8(rank), nodeH)
		acc = acc<<8 | uint64(child) | 1<<63 // keep levels distinguishable
		a = shiftInByte(a, child)
	}
	if m.levels == 4 {
		// IPv4: place the 4 sampled bytes in the top 32 bits.
		a = hierarchy.Addr{Hi: a.Lo << 32}
	}
	return a
}

// shiftInByte appends one byte at the low end of a 128-bit accumulator.
func shiftInByte(a hierarchy.Addr, b uint8) hierarchy.Addr {
	return hierarchy.Addr{
		Hi: a.Hi<<8 | a.Lo>>56,
		Lo: a.Lo<<8 | uint64(b),
	}
}

// permute8 maps a rank to an octet through a bijection derived from h
// (odd multiplier + xor), so each tree node prefers different children.
func permute8(rank uint8, h uint64) uint8 {
	return uint8(rank*uint8(h|1) + uint8(h>>8))
}

// zipfSampler draws ranks in [0, n) with approximately Zipf(alpha)
// probabilities using the continuous power-law inverse CDF — O(1) per draw,
// accurate enough for workload generation.
type zipfSampler struct {
	n     float64
	alpha float64
}

func newZipfSampler(n int, alpha float64) zipfSampler {
	if n < 1 {
		panic("trace: zipf universe must be positive")
	}
	return zipfSampler{n: float64(n), alpha: alpha}
}

func (z zipfSampler) sample(r *fastrand.Source) int {
	u := r.Float64()
	var x float64
	if math.Abs(z.alpha-1) < 1e-9 {
		// CDF ≈ ln(x)/ln(n): inverse is n^u.
		x = math.Exp(u * math.Log(z.n))
	} else {
		// CDF ≈ (x^(1−α) − 1)/(n^(1−α) − 1).
		b := 1 - z.alpha
		x = math.Pow(u*(math.Pow(z.n, b)-1)+1, 1/b)
	}
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= int(z.n) {
		i = int(z.n) - 1
	}
	return i
}

// mix64 is the splitmix64 finalizer (shared with fastrand's stepping).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
