// Package trace provides the packet substrate for the reproduction: a packet
// model, a minimal layered decoder/encoder for Ethernet/VLAN/IPv4/IPv6/
// TCP/UDP/ICMP (enough to replay real captures), a classic-pcap reader and
// writer, and seeded synthetic workload generators that stand in for the
// paper's CAIDA backbone traces, which cannot be redistributed (the README
// section "What stands in for the paper's testbed" gives the argument).
package trace

import (
	"rhhh/internal/hierarchy"
)

// IP protocol numbers used by the decoder and generators.
const (
	ProtoICMP   = 1
	ProtoTCP    = 6
	ProtoUDP    = 17
	ProtoICMPv6 = 58
)

// Packet is one observed packet, already parsed to the fields the
// measurement algorithms and the virtual switch need. Addresses are stored
// in the uniform 128-bit form (IPv4 occupies the top 32 bits, matching
// hierarchy.AddrFromIPv4).
type Packet struct {
	// TsNanos is the capture timestamp in nanoseconds since the epoch (or
	// trace start for synthetic traces).
	TsNanos int64
	// SrcIP and DstIP are the network-layer endpoints.
	SrcIP, DstIP hierarchy.Addr
	// V6 reports whether the packet was IPv6.
	V6 bool
	// SrcPort and DstPort are transport ports (0 for ICMP).
	SrcPort, DstPort uint16
	// Proto is the IP protocol number (ProtoTCP, ProtoUDP, ...).
	Proto uint8
	// Length is the original wire length in bytes.
	Length int
}

// Key1 returns the one-dimensional IPv4 key (source address).
func (p Packet) Key1() uint32 { return p.SrcIP.IPv4() }

// Key2 returns the two-dimensional IPv4 key (source, destination).
func (p Packet) Key2() uint64 {
	return hierarchy.Pack2D(p.SrcIP.IPv4(), p.DstIP.IPv4())
}

// Key1v6 returns the one-dimensional 128-bit key.
func (p Packet) Key1v6() hierarchy.Addr { return p.SrcIP }

// Key2v6 returns the two-dimensional 128-bit key.
func (p Packet) Key2v6() hierarchy.AddrPair {
	return hierarchy.AddrPair{Src: p.SrcIP, Dst: p.DstIP}
}

// FiveTuple identifies a transport flow; the virtual switch's exact-match
// cache is keyed on it.
type FiveTuple struct {
	Src, Dst         hierarchy.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Flow returns the packet's five-tuple.
func (p Packet) Flow() FiveTuple {
	return FiveTuple{
		Src: p.SrcIP, Dst: p.DstIP,
		SrcPort: p.SrcPort, DstPort: p.DstPort,
		Proto: p.Proto,
	}
}

// Source yields packets one at a time; ok is false when the source is
// exhausted. Implementations: Synthetic (seeded generator), PcapReader,
// Slice.
type Source interface {
	Next() (Packet, bool)
}

// Slice is an in-memory Source.
type Slice struct {
	Packets []Packet
	i       int
}

// Next returns the next packet in the slice.
func (s *Slice) Next() (Packet, bool) {
	if s.i >= len(s.Packets) {
		return Packet{}, false
	}
	p := s.Packets[s.i]
	s.i++
	return p, true
}

// Reset rewinds the slice source.
func (s *Slice) Reset() { s.i = 0 }

// Limit wraps a Source, yielding at most n packets.
type Limit struct {
	Src  Source
	N    uint64
	seen uint64
}

// Next returns the next packet until the limit is hit.
func (l *Limit) Next() (Packet, bool) {
	if l.seen >= l.N {
		return Packet{}, false
	}
	p, ok := l.Src.Next()
	if ok {
		l.seen++
	}
	return p, ok
}
