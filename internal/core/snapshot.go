package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"rhhh/internal/hierarchy"
	"rhhh/internal/spacesaving"
)

// EngineSnapshot is an immutable, mergeable copy of an engine's measurement
// state: one Space Saving snapshot per lattice node plus the sampling
// metadata (N, V, R, ε, δ) a query needs. Snapshots are the read-path
// currency — Output, merging, serialization and windowing all consume
// snapshots, so live engines are only ever paused for the O(H·capacity)
// copy in SnapshotInto, never for a query.
type EngineSnapshot[K comparable] struct {
	// Nodes holds one summary snapshot per lattice node, indexed like the
	// engine's instances.
	Nodes []spacesaving.Snapshot[K]
	// Packets is the number of Update calls absorbed; Weight the total
	// stream weight (equal on unitary streams).
	Packets uint64
	Weight  uint64
	// V and R are the sampling parameters in effect (counts scale by V/R).
	V, R int
	// Epsilon and Delta are the configured error and failure probability;
	// Delta determines the sampling correction applied by Output.
	Epsilon, Delta float64

	// gen is the snapshot's mutation generation, drawn from a process-wide
	// counter each time the in-repo mutators (SnapshotInto, SnapshotMerger,
	// Decode, Invalidate) rewrite the contents. Query caches (the
	// Extractor's bounds indices and unchanged-query shortcut) key on it, so
	// code that fills the exported fields by hand must call Invalidate.
	gen uint64
	// src identifies the engine (and its reset epoch) a SnapshotInto capture
	// came from, letting a repeat capture of an unchanged engine into the
	// same buffer skip the copy and keep gen.
	src      *Engine[K]
	srcEpoch uint64
}

// snapGenCounter issues mutation generations; 0 is reserved for "unknown"
// (hand-assembled snapshots), which disables the unchanged-query caches.
var snapGenCounter atomic.Uint64

func nextSnapGen() uint64 { return snapGenCounter.Add(1) }

// Invalidate marks a hand-assembled (or externally mutated) snapshot as
// changed so snapshot-level query caches — the unchanged-snapshot query
// shortcut and the merger's whole-merge skip — are refreshed. Per-node
// caches (the Extractor's bounds indices, the merger's per-node re-merge
// skip) are keyed on each node's own generation: rewriting a node through
// spacesaving.SnapshotInto/MergeInto/Decode stamps it automatically, and
// code that mutates a node's arrays in place must call that node's
// Invalidate as well. Snapshots produced by SnapshotInto,
// SnapshotMerger.Merge and DecodeEngineSnapshot are marked automatically at
// both levels.
func (es *EngineSnapshot[K]) Invalidate() {
	es.gen = nextSnapGen()
	es.src = nil
}

// SnapshotInto copies the engine's state into dst, reusing dst's buffers
// (zero allocations once they have grown). A nil dst allocates. Only the
// Space Saving (stream-summary) and CHK backends support snapshots; the
// heap and Count-Min instances of the ablations panic. Returns dst.
//
// A repeat capture of an engine that has not absorbed any update (and has
// not been Reset, Reseeded or restored) into the same dst skips the copy
// and leaves dst's mutation generation unchanged, so downstream query
// caches recognize the state as identical.
func (e *Engine[K]) SnapshotInto(dst *EngineSnapshot[K]) *EngineSnapshot[K] {
	if e.ss == nil && e.chk == nil {
		panic("core: snapshots require the Space Saving or CHK backend")
	}
	if dst == nil {
		dst = &EngineSnapshot[K]{}
	}
	if dst.src == e && dst.srcEpoch == e.epoch && dst.Packets == e.packets && dst.Weight == e.Weight() {
		return dst
	}
	// Same source, same epoch: per-node summary weights are monotone, so a
	// node whose N matches the previous capture is unchanged and its copy
	// (and mutation generation) can be kept — a query after a small traffic
	// delta then re-merges and re-indexes only the touched nodes.
	sameSrc := dst.src == e && dst.srcEpoch == e.epoch && len(dst.Nodes) == len(e.inst)
	if cap(dst.Nodes) < len(e.inst) {
		nodes := make([]spacesaving.Snapshot[K], len(e.inst))
		copy(nodes, dst.Nodes)
		dst.Nodes = nodes
	}
	dst.Nodes = dst.Nodes[:len(e.inst)]
	for i := range e.inst {
		if e.ss != nil {
			s := e.ss[i]
			if sameSrc && dst.Nodes[i].N == s.N() && dst.Nodes[i].Gen() != 0 {
				continue
			}
			s.SnapshotInto(&dst.Nodes[i])
		} else {
			c := e.chk[i]
			if sameSrc && dst.Nodes[i].N == c.N() && dst.Nodes[i].Gen() != 0 {
				continue
			}
			c.SnapshotInto(&dst.Nodes[i])
		}
	}
	dst.Packets = e.packets
	dst.Weight = e.Weight()
	dst.V, dst.R = int(e.v), e.r
	dst.Epsilon, dst.Delta = e.epsilon, e.delta
	dst.gen = nextSnapGen()
	dst.src, dst.srcEpoch = e, e.epoch
	return dst
}

// Snapshot returns a freshly allocated snapshot of the engine.
func (e *Engine[K]) Snapshot() *EngineSnapshot[K] { return e.SnapshotInto(nil) }

// Output answers the HHH query from the snapshot, exactly as the engine it
// was taken from would have at capture time: same candidate order, same
// bounds, same V/r scaling and sampling correction, hence bit-identical
// results. It runs on a freshly allocated workspace; hot query paths hold a
// reusable Extractor and call ExtractSnapshot instead.
func (es *EngineSnapshot[K]) Output(dom *hierarchy.Domain[K], theta float64) []Result[K] {
	if !(theta > 0 && theta <= 1) {
		panic("core: theta must be in (0, 1]")
	}
	return NewExtractor(dom).ExtractSnapshot(es, theta)
}

// SuggestTheta returns a reporting threshold tuned from the observed skew:
// the k-th largest conditioned-estimate fraction among the fully specified
// candidates. Fully specified keys are evaluated first by the Output
// procedure, before any HHH exists below them, so their conditioned estimate
// is exactly f̂p+ + correction — the k-th largest of those (the node's Upper
// array is stored in non-ascending order, so this is one array read) divided
// by N is the threshold at which the k heaviest monitored keys still pass.
// When fewer than k keys are monitored the smallest monitored upper bound is
// used (more permissive), and an empty snapshot returns 1. The result is
// clamped to (0, 1], so it is always a valid query threshold.
func (es *EngineSnapshot[K]) SuggestTheta(dom *hierarchy.Domain[K], k int) float64 {
	if k < 1 {
		panic("core: SuggestTheta needs k >= 1")
	}
	if len(es.Nodes) != dom.Size() {
		panic("core: snapshot does not match lattice size")
	}
	n := float64(es.Weight)
	if n == 0 {
		return 1
	}
	return suggestTheta(&es.Nodes[dom.FullNode()], n, es.V, es.R, es.Delta, k)
}

// suggestTheta is SuggestTheta's rule over the fully specified node sn of a
// snapshot (or union of snapshots) of stream weight n > 0.
func suggestTheta[K comparable](sn *spacesaving.Snapshot[K], n float64, v, r int, delta float64, k int) float64 {
	var up uint64
	switch {
	case len(sn.Keys) == 0:
		up = sn.Min
	case k <= len(sn.Upper):
		up = sn.Upper[k-1]
	default:
		up = sn.Upper[len(sn.Upper)-1]
	}
	scale := float64(v) / float64(r)
	theta := (float64(up)*scale + SamplingCorrection(n, v, r, delta)) / n
	// Clamp both ends: the correction is non-positive when δ ≥ 0.5 and the
	// fully specified node can be empty, so the raw value may reach 0 or
	// below — floor at one stream unit (θ·N = 1) to keep the promise that
	// the result is always a valid query threshold.
	switch {
	case theta > 1:
		return 1
	case theta*n < 1:
		return 1 / n
	}
	return theta
}

// LoadSnapshot replaces the engine's measurement state with the snapshot's —
// the restore half of snapshot-driven persistence. The engine must use the
// Space Saving backend with the same lattice size, V, R, ε and δ, and each
// node must fit its counter capacity (always true for snapshots of an
// equally configured engine). The update-path RNG is not part of a
// snapshot: a restored engine continues on its own stream, so the paper's
// guarantees carry over but bit-for-bit reproducibility across a restart is
// not preserved.
func (e *Engine[K]) LoadSnapshot(es *EngineSnapshot[K]) error {
	if e.ss == nil && e.chk == nil {
		return errors.New("core: snapshots require the Space Saving or CHK backend")
	}
	if len(es.Nodes) != len(e.inst) {
		return fmt.Errorf("core: snapshot has %d lattice nodes, engine has %d", len(es.Nodes), len(e.inst))
	}
	if es.V != int(e.v) || es.R != e.r {
		return fmt.Errorf("core: snapshot V=%d R=%d, engine V=%d R=%d", es.V, es.R, e.v, e.r)
	}
	if es.Epsilon != e.epsilon || es.Delta != e.delta {
		return fmt.Errorf("core: snapshot ε=%g δ=%g, engine ε=%g δ=%g", es.Epsilon, es.Delta, e.epsilon, e.delta)
	}
	for i := range es.Nodes {
		var nodeCap int
		if e.ss != nil {
			nodeCap = e.ss[i].Capacity()
		} else {
			nodeCap = e.chk[i].Capacity()
		}
		if es.Nodes[i].Len() > nodeCap {
			return fmt.Errorf("core: node %d snapshot has %d keys, engine capacity %d",
				i, es.Nodes[i].Len(), nodeCap)
		}
	}
	for i := range es.Nodes {
		if e.ss != nil {
			e.ss[i].LoadSnapshot(&es.Nodes[i])
		} else if err := e.chk[i].LoadSnapshot(&es.Nodes[i]); err != nil {
			return fmt.Errorf("core: node %d: %w", i, err)
		}
	}
	e.packets = es.Packets
	e.extraW = int64(es.Weight) - int64(es.Packets)
	e.epoch++
	if e.useSkip {
		e.nextSample = e.packets + 1 + e.geo.Next(e.rng)
	}
	return nil
}

// SnapshotMerger folds engine snapshots over disjoint sub-streams into one
// snapshot over their union, retaining all scratch (one spacesaving.Merger,
// reused node after node) across calls so a steady-state merge allocates
// nothing. The merged snapshot preserves the Definition 4 bounds per node
// (see spacesaving.Merger), so Theorem 6.17 applies to the union stream
// with N = ΣNᵢ.
type SnapshotMerger[K comparable] struct {
	m spacesaving.Merger[K]

	// Unchanged-input skip: the previous call's destination identity and
	// input generations. A repeat merge of unchanged inputs into the same
	// (untouched) destination is a no-op that keeps the destination's
	// generation, so downstream query caches stay warm. Inputs are matched
	// by generation alone, not pointer identity: a nonzero generation is
	// drawn once and stamped on exactly one capture, so equal generations
	// mean identical contents even across distinct snapshot pointers — this
	// is what lets PubRing's publications (fresh slots that alias unchanged
	// node buffers and keep their generations) reuse the merge. The destination keeps its pointer check because it is
	// written in place. The per-node generations refine the skip: when only
	// some nodes' inputs changed (a small traffic delta between queries),
	// only those nodes are re-merged.
	lastDst        *EngineSnapshot[K]
	lastDstGen     uint64
	lastGen        []uint64
	lastNodeGen    []uint64 // input node generations, input-major: [i*h+node]
	lastDstNodeGen []uint64
}

// Merge folds snaps (in order, which fixes deterministic tie-breaking) into
// dst, reusing dst's buffers; a nil dst allocates. All snapshots must share
// the lattice size and the V and R parameters — the merged counts share one
// V/r scaling. Node capacities may differ; each merged node keeps the
// largest. Panics on mismatched snapshots (a programming error — public
// wrappers validate first).
func (sm *SnapshotMerger[K]) Merge(dst *EngineSnapshot[K], snaps ...*EngineSnapshot[K]) *EngineSnapshot[K] {
	if len(snaps) == 0 {
		panic("core: merge of zero snapshots")
	}
	first := snaps[0]
	h := len(first.Nodes)
	for _, s := range snaps[1:] {
		if len(s.Nodes) != h {
			panic("core: snapshot merge requires a shared lattice")
		}
		if s.V != first.V || s.R != first.R {
			panic("core: snapshot merge requires equal V and R")
		}
	}
	if dst == nil {
		dst = &EngineSnapshot[K]{}
	}
	if sm.unchanged(dst, snaps) {
		return dst
	}
	if cap(dst.Nodes) < h {
		nodes := make([]spacesaving.Snapshot[K], h)
		copy(nodes, dst.Nodes)
		dst.Nodes = nodes
	}
	dst.Nodes = dst.Nodes[:h]
	// Per-node skip: when this merge repeats the previous call's shape (same
	// destination, untouched since, same input count), a node whose input
	// generations all match the previous call still holds the right merged
	// result — keep it (and its generation) and re-merge only changed nodes.
	// Input pointers are deliberately not compared: generations alone
	// identify content (see the field comment), so republished snapshots
	// sharing unchanged node buffers still hit the skip.
	partial := dst == sm.lastDst && dst.gen == sm.lastDstGen && dst.gen != 0 &&
		len(snaps) == len(sm.lastGen) &&
		len(sm.lastNodeGen) == len(snaps)*h && len(sm.lastDstNodeGen) == h
	if cap(sm.lastNodeGen) < len(snaps)*h {
		sm.lastNodeGen = make([]uint64, len(snaps)*h)
	}
	sm.lastNodeGen = sm.lastNodeGen[:len(snaps)*h]
	if cap(sm.lastDstNodeGen) < h {
		sm.lastDstNodeGen = make([]uint64, h)
	}
	sm.lastDstNodeGen = sm.lastDstNodeGen[:h]
	for node := 0; node < h; node++ {
		if partial && sm.nodeUnchanged(node, h, snaps, dst) {
			continue
		}
		sm.m.Reset()
		capacity := 1
		for _, s := range snaps {
			sm.m.Add(&s.Nodes[node])
			capacity = max(capacity, s.Nodes[node].Cap)
		}
		sm.m.MergeInto(&dst.Nodes[node], capacity)
	}
	for i, s := range snaps {
		for node := 0; node < h; node++ {
			sm.lastNodeGen[i*h+node] = s.Nodes[node].Gen()
		}
	}
	for node := 0; node < h; node++ {
		sm.lastDstNodeGen[node] = dst.Nodes[node].Gen()
	}
	dst.Packets, dst.Weight = 0, 0
	for _, s := range snaps {
		dst.Packets += s.Packets
		dst.Weight += s.Weight
	}
	dst.V, dst.R = first.V, first.R
	dst.Epsilon, dst.Delta = first.Epsilon, first.Delta
	dst.gen = nextSnapGen()
	dst.src = nil
	sm.lastDst, sm.lastDstGen = dst, dst.gen
	sm.lastGen = sm.lastGen[:0]
	for _, s := range snaps {
		sm.lastGen = append(sm.lastGen, s.gen)
	}
	return dst
}

// nodeUnchanged reports whether one node's merge inputs (and its slot in the
// destination) are untouched since the merger's previous call.
func (sm *SnapshotMerger[K]) nodeUnchanged(node, h int, snaps []*EngineSnapshot[K], dst *EngineSnapshot[K]) bool {
	if g := dst.Nodes[node].Gen(); g == 0 || g != sm.lastDstNodeGen[node] {
		return false
	}
	for i, s := range snaps {
		if g := s.Nodes[node].Gen(); g == 0 || g != sm.lastNodeGen[i*h+node] {
			return false
		}
	}
	return true
}

// unchanged reports whether this merge would reproduce the merger's previous
// result: same destination (not rewritten by anyone since), every input
// generation unchanged and known. Inputs are matched by generation, not
// pointer — see the field comment.
func (sm *SnapshotMerger[K]) unchanged(dst *EngineSnapshot[K], snaps []*EngineSnapshot[K]) bool {
	if dst != sm.lastDst || dst.gen != sm.lastDstGen || dst.gen == 0 || len(snaps) != len(sm.lastGen) {
		return false
	}
	for i, s := range snaps {
		if s.gen != sm.lastGen[i] || s.gen == 0 {
			return false
		}
	}
	return true
}

// Engine snapshot binary encoding, version 1. Deterministic: equal
// snapshots encode to equal bytes. Layout:
//
//	byte    version (1)
//	uvarint H (number of lattice nodes)
//	uvarint V, uvarint R
//	8 bytes ε (IEEE 754 bits, big endian), 8 bytes δ
//	uvarint packets, uvarint weight
//	H × node snapshot (spacesaving encoding, fixed-width big-endian keys)
const engineSnapVersion = 1

// engineSnapMaxH guards decode against absurd allocations.
const engineSnapMaxH = 1 << 16

// AppendBinary appends the versioned binary encoding of the snapshot to buf.
// It errors when the carrier type K has no registered key codec (the four
// lattice carriers — uint32, uint64, Addr, AddrPair — all do).
func (es *EngineSnapshot[K]) AppendBinary(buf []byte) ([]byte, error) {
	putKey, _, ok := keyCodecFor[K]()
	if !ok {
		return nil, fmt.Errorf("core: no key codec for %T", *new(K))
	}
	buf = append(buf, engineSnapVersion)
	buf = binary.AppendUvarint(buf, uint64(len(es.Nodes)))
	buf = binary.AppendUvarint(buf, uint64(es.V))
	buf = binary.AppendUvarint(buf, uint64(es.R))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(es.Epsilon))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(es.Delta))
	buf = binary.AppendUvarint(buf, es.Packets)
	buf = binary.AppendUvarint(buf, es.Weight)
	for i := range es.Nodes {
		buf = es.Nodes[i].AppendBinary(buf, putKey)
	}
	return buf, nil
}

// DecodeEngineSnapshot parses one encoded engine snapshot from b and returns
// it with the remaining bytes. All structural invariants are validated (see
// spacesaving snapshot decoding), so the result is safe to merge and query.
func DecodeEngineSnapshot[K comparable](b []byte) (*EngineSnapshot[K], []byte, error) {
	_, getKey, ok := keyCodecFor[K]()
	if !ok {
		return nil, nil, fmt.Errorf("core: no key codec for %T", *new(K))
	}
	if len(b) < 1 {
		return nil, nil, errors.New("core: short engine snapshot")
	}
	if b[0] != engineSnapVersion {
		return nil, nil, fmt.Errorf("core: unknown engine snapshot version %d", b[0])
	}
	b = b[1:]
	var h, v, r uint64
	for _, dst := range []*uint64{&h, &v, &r} {
		val, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, nil, errors.New("core: truncated engine snapshot header")
		}
		*dst, b = val, b[w:]
	}
	if h < 1 || h > engineSnapMaxH {
		return nil, nil, fmt.Errorf("core: engine snapshot H=%d out of range", h)
	}
	if v < h || r < 1 {
		return nil, nil, fmt.Errorf("core: engine snapshot has invalid V=%d R=%d for H=%d", v, r, h)
	}
	if len(b) < 16 {
		return nil, nil, errors.New("core: truncated engine snapshot header")
	}
	epsilon := math.Float64frombits(binary.BigEndian.Uint64(b[0:8]))
	delta := math.Float64frombits(binary.BigEndian.Uint64(b[8:16]))
	b = b[16:]
	if !(epsilon > 0 && epsilon < 1) || !(delta > 0 && delta < 1) {
		return nil, nil, errors.New("core: engine snapshot ε/δ out of (0, 1)")
	}
	var packets, weight uint64
	for _, dst := range []*uint64{&packets, &weight} {
		val, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, nil, errors.New("core: truncated engine snapshot header")
		}
		*dst, b = val, b[w:]
	}
	es := &EngineSnapshot[K]{
		Nodes:   make([]spacesaving.Snapshot[K], h),
		Packets: packets,
		Weight:  weight,
		V:       int(v),
		R:       int(r),
		Epsilon: epsilon,
		Delta:   delta,
		gen:     nextSnapGen(),
	}
	for i := range es.Nodes {
		rest, err := es.Nodes[i].Decode(b, getKey)
		if err != nil {
			return nil, nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		b = rest
	}
	return es, b, nil
}

// keyCodecFor resolves the fixed-width big-endian key codec for the built-in
// lattice carriers at instantiation time (the same trick the Space Saving
// hash resolver uses). ok is false for carriers without a codec.
func keyCodecFor[K comparable]() (putKey func([]byte, K) []byte, getKey func([]byte) (K, []byte, error), ok bool) {
	var put, get any
	switch any(*new(K)).(type) {
	case uint32:
		put = func(b []byte, k uint32) []byte { return binary.BigEndian.AppendUint32(b, k) }
		get = func(b []byte) (uint32, []byte, error) {
			if len(b) < 4 {
				return 0, nil, errors.New("core: truncated key")
			}
			return binary.BigEndian.Uint32(b), b[4:], nil
		}
	case uint64:
		put = func(b []byte, k uint64) []byte { return binary.BigEndian.AppendUint64(b, k) }
		get = func(b []byte) (uint64, []byte, error) {
			if len(b) < 8 {
				return 0, nil, errors.New("core: truncated key")
			}
			return binary.BigEndian.Uint64(b), b[8:], nil
		}
	case hierarchy.Addr:
		put = func(b []byte, k hierarchy.Addr) []byte {
			b = binary.BigEndian.AppendUint64(b, k.Hi)
			return binary.BigEndian.AppendUint64(b, k.Lo)
		}
		get = func(b []byte) (hierarchy.Addr, []byte, error) {
			if len(b) < 16 {
				return hierarchy.Addr{}, nil, errors.New("core: truncated key")
			}
			return hierarchy.Addr{
				Hi: binary.BigEndian.Uint64(b[0:8]),
				Lo: binary.BigEndian.Uint64(b[8:16]),
			}, b[16:], nil
		}
	case hierarchy.AddrPair:
		put = func(b []byte, k hierarchy.AddrPair) []byte {
			b = binary.BigEndian.AppendUint64(b, k.Src.Hi)
			b = binary.BigEndian.AppendUint64(b, k.Src.Lo)
			b = binary.BigEndian.AppendUint64(b, k.Dst.Hi)
			return binary.BigEndian.AppendUint64(b, k.Dst.Lo)
		}
		get = func(b []byte) (hierarchy.AddrPair, []byte, error) {
			if len(b) < 32 {
				return hierarchy.AddrPair{}, nil, errors.New("core: truncated key")
			}
			return hierarchy.AddrPair{
				Src: hierarchy.Addr{Hi: binary.BigEndian.Uint64(b[0:8]), Lo: binary.BigEndian.Uint64(b[8:16])},
				Dst: hierarchy.Addr{Hi: binary.BigEndian.Uint64(b[16:24]), Lo: binary.BigEndian.Uint64(b[24:32])},
			}, b[32:], nil
		}
	default:
		return nil, nil, false
	}
	return put.(func([]byte, K) []byte), get.(func([]byte) (K, []byte, error)), true
}
