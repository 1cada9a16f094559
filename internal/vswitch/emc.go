package vswitch

import (
	"math/bits"

	"rhhh/internal/trace"
)

// EMC is the exact-match cache in front of the classifier, laid out as the
// OVS-DPDK EMC (lib/dpif-netdev.c, EM_FLOW_HASH_SEGS = 2): one flat,
// power-of-two array of entries, which allocates nothing after
// construction.
//
// A flow may sit only in the two entries named by two disjoint segments of
// its hash: the low shift bits and the next shift bits. A lookup compares
// those two entries. A miss writes a dead candidate, or else the candidate
// whose stored hash is smaller, so a cached flow leaves only when a flow
// sharing one of its entries displaces it. The hash is keyed by the seed,
// so datapaths with different seeds cache different subsets of the same
// traffic.
type EMC struct {
	entries []emcEntry
	mask    uint32 // len(entries) − 1
	shift   uint32 // log2(len(entries)): the width of one hash segment
	key     uint64 // flowHash's key, drawn from the seed
	n       int    // live entries
}

// emcEntry is one cache entry; live is false until a flow is first written.
type emcEntry struct {
	flow   trace.FiveTuple
	action Action
	hash   uint32
	live   bool
}

// NewEMC returns a cache of capacity flows rounded up to a power of two
// (OVS uses 8192). The two candidate segments must fit in the 32-bit hash,
// so capacity ranges over [1, 2¹⁶].
func NewEMC(capacity int, seed uint64) *EMC {
	if capacity < 1 || capacity > 1<<16 {
		panic("vswitch: EMC capacity must be in [1, 65536]")
	}
	shift := bits.Len(uint(capacity - 1))
	return &EMC{
		entries: make([]emcEntry, 1<<shift),
		mask:    1<<shift - 1,
		shift:   uint32(shift),
		key:     mulFold(seed^wyp0, wyp1),
	}
}

// Lookup returns the cached action for the flow.
func (c *EMC) Lookup(ft trace.FiveTuple) (Action, bool) {
	if e := c.find(ft, flowHash(ft, c.key)); e != nil {
		return e.action, true
	}
	return Action{}, false
}

// Insert caches the action, displacing a candidate entry's flow when both
// are live.
func (c *EMC) Insert(ft trace.FiveTuple, a Action) {
	h := flowHash(ft, c.key)
	if e := c.find(ft, h); e != nil {
		e.action = a
		return
	}
	c.add(ft, h, a)
}

// Len returns the number of cached flows.
func (c *EMC) Len() int { return c.n }

// find returns the entry caching ft (whose hash is h), or nil.
func (c *EMC) find(ft trace.FiveTuple, h uint32) *emcEntry {
	if e := &c.entries[h&c.mask]; e.hash == h && e.live && e.flow == ft {
		return e
	}
	if e := &c.entries[h>>c.shift&c.mask]; e.hash == h && e.live && e.flow == ft {
		return e
	}
	return nil
}

// add writes a flow that is not cached into a dead candidate entry, or
// else into the candidate whose stored hash is smaller (the first on a
// tie).
func (c *EMC) add(ft trace.FiveTuple, h uint32, a Action) {
	e := &c.entries[h&c.mask]
	if f := &c.entries[h>>c.shift&c.mask]; e.live && (!f.live || f.hash < e.hash) {
		e = f
	}
	if !e.live {
		c.n++
	}
	*e = emcEntry{flow: ft, action: a, hash: h, live: true}
}

// wyhash's multiplication constants.
const wyp0, wyp1, wyp2 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3

// flowHash mixes a five-tuple and a cache's key into its 32-bit hash with
// wyhash's multiply-and-fold: three 64×64→128-bit products.
func flowHash(ft trace.FiveTuple, key uint64) uint32 {
	h := mulFold(ft.Src.Hi^key, ft.Dst.Hi^wyp1) ^ mulFold(ft.Src.Lo^wyp1, ft.Dst.Lo^wyp2)
	ports := uint64(ft.SrcPort)<<24 | uint64(ft.DstPort)<<8 | uint64(ft.Proto)
	return uint32(mulFold(h^wyp2, ports^wyp0))
}

// mulFold returns the xor of the two halves of the 128-bit product a·b.
func mulFold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
