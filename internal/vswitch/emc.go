package vswitch

import (
	"math/bits"

	"rhhh/internal/fastrand"
	"rhhh/internal/trace"
)

// EMC is the exact-match cache in front of the classifier, mirroring the
// OVS-DPDK EMC: a bounded, flat table from five-tuple to action with random
// replacement, which allocates nothing after construction.
//
// Entries sit in insertion order in parallel arrays (five-tuple, action,
// hash). A full cache evicts a uniformly drawn entry and moves the last
// entry into its place. A linear-probing index of at least twice the
// capacity maps a hash to an entry; its cells carry the hash too, so
// probing, eviction and the backward-shift repair after a removal never
// rehash a five-tuple.
type EMC struct {
	flows   []trace.FiveTuple
	actions []Action
	hashes  []uint32
	index   []emcCell
	mask    uint32 // len(index) − 1
	cap     int
	rng     *fastrand.Source
}

// emcCell is one index cell: an entry's hash and its position + 1 (0 marks
// a free cell).
type emcCell struct {
	hash, pos uint32
}

// NewEMC returns a cache holding up to capacity flows (OVS defaults to 8192).
func NewEMC(capacity int, seed uint64) *EMC {
	if capacity < 1 {
		panic("vswitch: EMC capacity must be >= 1")
	}
	size := 1 << bits.Len(uint(2*capacity-1))
	return &EMC{
		flows:   make([]trace.FiveTuple, 0, capacity),
		actions: make([]Action, 0, capacity),
		hashes:  make([]uint32, 0, capacity),
		index:   make([]emcCell, size),
		mask:    uint32(size - 1),
		cap:     capacity,
		rng:     fastrand.New(seed),
	}
}

// Lookup returns the cached action for the flow.
func (c *EMC) Lookup(ft trace.FiveTuple) (Action, bool) {
	if i := c.find(ft, flowHash(ft)); i >= 0 {
		return c.actions[i], true
	}
	return Action{}, false
}

// Insert caches the action, evicting a random entry at capacity.
func (c *EMC) Insert(ft trace.FiveTuple, a Action) {
	h := flowHash(ft)
	if i := c.find(ft, h); i >= 0 {
		c.actions[i] = a
		return
	}
	c.add(ft, h, a)
}

// Len returns the number of cached flows.
func (c *EMC) Len() int { return len(c.flows) }

// find returns the position of ft (whose hash is h), or -1 when it is not
// cached.
func (c *EMC) find(ft trace.FiveTuple, h uint32) int {
	for s := h & c.mask; ; s = (s + 1) & c.mask {
		e := c.index[s]
		if e.pos == 0 {
			return -1
		}
		if e.hash == h && c.flows[e.pos-1] == ft {
			return int(e.pos - 1)
		}
	}
}

// add caches a flow that is not cached, evicting a random entry at
// capacity.
func (c *EMC) add(ft trace.FiveTuple, h uint32, a Action) {
	if len(c.flows) >= c.cap {
		c.evict(int(c.rng.Uint64n(uint64(len(c.flows)))))
	}
	s := h & c.mask
	for c.index[s].pos != 0 {
		s = (s + 1) & c.mask
	}
	c.index[s] = emcCell{hash: h, pos: uint32(len(c.flows) + 1)}
	c.flows = append(c.flows, ft)
	c.actions = append(c.actions, a)
	c.hashes = append(c.hashes, h)
}

// evict removes entry v and moves the last entry into its position.
func (c *EMC) evict(v int) {
	c.unindex(c.cell(v))
	last := len(c.flows) - 1
	if v != last {
		c.index[c.cell(last)].pos = uint32(v + 1)
		c.flows[v], c.actions[v], c.hashes[v] = c.flows[last], c.actions[last], c.hashes[last]
	}
	c.flows, c.actions, c.hashes = c.flows[:last], c.actions[:last], c.hashes[:last]
}

// cell returns the index cell that points at entry i.
func (c *EMC) cell(i int) uint32 {
	s := c.hashes[i] & c.mask
	for c.index[s].pos != uint32(i+1) {
		s = (s + 1) & c.mask
	}
	return s
}

// unindex frees cell s by backward-shift deletion: each later cell of the
// probe run whose home is not in (s, j] moves back into the hole, so every
// entry stays reachable from its home with no tombstones.
func (c *EMC) unindex(s uint32) {
	for j := (s + 1) & c.mask; c.index[j].pos != 0; j = (j + 1) & c.mask {
		if (j-c.index[j].hash)&c.mask >= (j-s)&c.mask {
			c.index[s] = c.index[j]
			s = j
		}
	}
	c.index[s] = emcCell{}
}

// flowHash mixes a five-tuple into the index hash with wyhash's
// multiply-and-fold: three 64×64→128-bit products.
func flowHash(ft trace.FiveTuple) uint32 {
	const k0, k1, k2 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3
	h := mulFold(ft.Src.Hi^k0, ft.Dst.Hi^k1) ^ mulFold(ft.Src.Lo^k1, ft.Dst.Lo^k2)
	ports := uint64(ft.SrcPort)<<24 | uint64(ft.DstPort)<<8 | uint64(ft.Proto)
	return uint32(mulFold(h^k2, ports^k0))
}

// mulFold returns the xor of the two halves of the 128-bit product a·b.
func mulFold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
