package hierarchy

import (
	"fmt"
	"sync"
)

// Domains are immutable, so constructors memoize them: repeated calls with
// the same shape return the same *Domain. This keeps the node tables shared
// and lets components compare domains by pointer (e.g. engine merging).
var domainCache sync.Map // cacheKey → *Domain[K] (as any)

type cacheKey struct {
	dims, width, step int
}

func cachedDomain[K comparable](dims, width, step int, build func() *Domain[K]) *Domain[K] {
	key := cacheKey{dims, width, step}
	if v, ok := domainCache.Load(key); ok {
		return v.(*Domain[K])
	}
	d := build()
	if v, loaded := domainCache.LoadOrStore(key, d); loaded {
		return v.(*Domain[K])
	}
	return d
}

// Granularity is the hierarchy step size in bits.
type Granularity int

// Supported granularities. Bytes gives the paper's H=5 (1D IPv4) and H=25
// (2D IPv4); Bits gives H=33 (1D IPv4); Nibbles is the middle ground often
// used for IPv6.
const (
	Bits    Granularity = 1
	Nibbles Granularity = 4
	Bytes   Granularity = 8
)

func (g Granularity) String() string {
	switch g {
	case Bits:
		return "bits"
	case Nibbles:
		return "nibbles"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("step-%d", int(g))
	}
}

// Pack2D packs a source and destination IPv4 address into the uint64 key
// used by two-dimensional IPv4 domains.
func Pack2D(src, dst uint32) uint64 {
	return uint64(src)<<32 | uint64(dst)
}

// Unpack2D splits a two-dimensional IPv4 key back into (src, dst).
func Unpack2D(k uint64) (src, dst uint32) {
	return uint32(k >> 32), uint32(k)
}

// NewIPv4OneDim builds the one-dimensional IPv4 source hierarchy at the given
// granularity. Keys are the 32-bit source address. H = 32/step + 1.
func NewIPv4OneDim(g Granularity) *Domain[uint32] {
	step := int(g)
	return cachedDomain(1, 32, step, func() *Domain[uint32] { return newIPv4OneDim(step) })
}

func newIPv4OneDim(step int) *Domain[uint32] {
	d := &Domain[uint32]{
		dims:  1,
		width: 32,
		step:  step,
		mask: func(k uint32, srcBits, _ int) uint32 {
			return k & mask32(srcBits)
		},
		merge: func(src, _ uint32) uint32 { return src },
		format: func(k uint32, srcBits, _ int) string {
			return formatPrefix32(k, srcBits)
		},
	}
	d.buildNodes(1, 32, step)
	d.name = fmt.Sprintf("1D-IPv4-%s (H=%d)", Granularity(step), len(d.nodes))
	tbl := make([]uint32, len(d.nodes))
	for i, n := range d.nodes {
		tbl[i] = mask32(n.SrcBits)
	}
	d.maskTable = tbl
	d.fastMask = func(k uint32, node int) uint32 { return k & tbl[node] }
	return d
}

// NewIPv4TwoDim builds the two-dimensional IPv4 source×destination hierarchy
// at the given granularity. Keys pack source in the high 32 bits and
// destination in the low 32 (use Pack2D). H = (32/step + 1)².
func NewIPv4TwoDim(g Granularity) *Domain[uint64] {
	step := int(g)
	return cachedDomain(2, 32, step, func() *Domain[uint64] { return newIPv4TwoDim(step) })
}

func newIPv4TwoDim(step int) *Domain[uint64] {
	d := &Domain[uint64]{
		dims:  2,
		width: 32,
		step:  step,
		mask: func(k uint64, srcBits, dstBits int) uint64 {
			return k & (uint64(mask32(srcBits))<<32 | uint64(mask32(dstBits)))
		},
		merge: func(src, dst uint64) uint64 {
			const hi32 = uint64(0xffffffff00000000)
			return src&hi32 | dst&^hi32
		},
		format: func(k uint64, srcBits, dstBits int) string {
			s, t := Unpack2D(k)
			return fmt.Sprintf("(%s -> %s)", formatPrefix32(s, srcBits), formatPrefix32(t, dstBits))
		},
	}
	d.buildNodes(2, 32, step)
	d.name = fmt.Sprintf("2D-IPv4-%s (H=%d)", Granularity(step), len(d.nodes))
	tbl := make([]uint64, len(d.nodes))
	for i, n := range d.nodes {
		tbl[i] = uint64(mask32(n.SrcBits))<<32 | uint64(mask32(n.DstBits))
	}
	d.maskTable = tbl
	d.fastMask = func(k uint64, node int) uint64 { return k & tbl[node] }
	return d
}

// NewIPv6OneDim builds the one-dimensional 128-bit source hierarchy at the
// given granularity. H = 128/step + 1 (17 for bytes, 33 for nibbles, 129 for
// bits) — the hierarchy sizes that motivate the paper's O(1) update time.
func NewIPv6OneDim(g Granularity) *Domain[Addr] {
	step := int(g)
	return cachedDomain(1, 128, step, func() *Domain[Addr] { return newIPv6OneDim(step) })
}

func newIPv6OneDim(step int) *Domain[Addr] {
	d := &Domain[Addr]{
		dims:  1,
		width: 128,
		step:  step,
		mask: func(k Addr, srcBits, _ int) Addr {
			return k.Mask(srcBits)
		},
		merge: func(src, _ Addr) Addr { return src },
		format: func(k Addr, srcBits, _ int) string {
			return formatPrefix128(k, srcBits)
		},
	}
	d.buildNodes(1, 128, step)
	d.name = fmt.Sprintf("1D-IPv6-%s (H=%d)", Granularity(step), len(d.nodes))
	tbl := make([]Addr, len(d.nodes))
	for i, n := range d.nodes {
		tbl[i] = Addr{Hi: ^uint64(0), Lo: ^uint64(0)}.Mask(n.SrcBits)
	}
	d.maskTable = tbl
	d.fastMask = func(k Addr, node int) Addr {
		m := tbl[node]
		return Addr{Hi: k.Hi & m.Hi, Lo: k.Lo & m.Lo}
	}
	return d
}

// NewIPv6TwoDim builds the two-dimensional 128-bit source×destination
// hierarchy at the given granularity. H = (128/step + 1)².
func NewIPv6TwoDim(g Granularity) *Domain[AddrPair] {
	step := int(g)
	return cachedDomain(2, 128, step, func() *Domain[AddrPair] { return newIPv6TwoDim(step) })
}

func newIPv6TwoDim(step int) *Domain[AddrPair] {
	d := &Domain[AddrPair]{
		dims:  2,
		width: 128,
		step:  step,
		mask: func(k AddrPair, srcBits, dstBits int) AddrPair {
			return AddrPair{Src: k.Src.Mask(srcBits), Dst: k.Dst.Mask(dstBits)}
		},
		merge: func(src, dst AddrPair) AddrPair {
			return AddrPair{Src: src.Src, Dst: dst.Dst}
		},
		format: func(k AddrPair, srcBits, dstBits int) string {
			return fmt.Sprintf("(%s -> %s)", formatPrefix128(k.Src, srcBits), formatPrefix128(k.Dst, dstBits))
		},
	}
	d.buildNodes(2, 128, step)
	d.name = fmt.Sprintf("2D-IPv6-%s (H=%d)", Granularity(step), len(d.nodes))
	ones := Addr{Hi: ^uint64(0), Lo: ^uint64(0)}
	tbl := make([]AddrPair, len(d.nodes))
	for i, n := range d.nodes {
		tbl[i] = AddrPair{Src: ones.Mask(n.SrcBits), Dst: ones.Mask(n.DstBits)}
	}
	d.maskTable = tbl
	d.fastMask = func(k AddrPair, node int) AddrPair {
		m := tbl[node]
		return AddrPair{
			Src: Addr{Hi: k.Src.Hi & m.Src.Hi, Lo: k.Src.Lo & m.Src.Lo},
			Dst: Addr{Hi: k.Dst.Hi & m.Dst.Hi, Lo: k.Dst.Lo & m.Dst.Lo},
		}
	}
	return d
}
