package rhhh

import (
	"errors"
	"fmt"
	"net/netip"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
)

// Snapshot is an immutable, mergeable, serializable copy of a Monitor's (or
// Sharded aggregate's) measurement state. Snapshots decouple the read side
// from the update path:
//
//   - HeavyHitters answers queries from the frozen state — bit-identical to
//     the source monitor's answer at capture time — while the source keeps
//     absorbing packets;
//   - Merge combines snapshots over disjoint sub-streams (shards,
//     sub-windows, remote switches) into one snapshot over their union,
//     preserving the paper's Definition 4 bounds with N = ΣNᵢ;
//   - MarshalBinary/UnmarshalBinary give a versioned, deterministic wire
//     form, so state can be shipped between processes or persisted across
//     restarts.
//
// Every Monitor can snapshot, on either backend (a CHK snapshot carries its
// sketches' point estimates as both bounds). The zero Snapshot is empty;
// UnmarshalBinary fills it.
//
// The measurement state a Snapshot carries is frozen, but queries reuse
// cached workspace inside the Snapshot (extraction slabs, bounds indices,
// the result buffer), so a Snapshot is not safe for concurrent use:
// serialize HeavyHitters/Merge calls externally, and copy the returned
// slice before handing it to another goroutine.
type Snapshot struct {
	impl snapCore
	dims int
	gran Granularity
	ipv6 bool
}

// snapCore is the carrier-typed part of a Snapshot.
type snapCore interface {
	heavyHitters(theta float64) []HeavyHitter
	weight() uint64
	packets() uint64
	appendBinary(buf []byte) ([]byte, error)
	suggestTheta(k int) float64
	// mergeFrom merges snaps, whose impls must share the receiver's carrier
	// type, into a new state.
	mergeFrom(snaps []*Snapshot) (snapCore, error)
}

// snapState implements snapCore over carrier type K.
type snapState[K comparable] struct {
	es    core.EngineSnapshot[K]
	dom   *hierarchy.Domain[K]
	split func(k K, srcBits, dstBits int) (netip.Prefix, netip.Prefix)

	// Query workspace, built on first use and retained: repeated queries on
	// the same (or successively refreshed) snapshot reuse the extraction
	// slabs, cached bounds indices and rendered prefix texts, so a warm
	// query allocates nothing.
	ex    *core.Extractor[K]
	exDom *hierarchy.Domain[K]
	conv  converter[K]
}

func (st *snapState[K]) heavyHitters(theta float64) []HeavyHitter {
	if st.ex == nil || st.exDom != st.dom {
		st.ex = core.NewExtractor(st.dom)
		st.exDom = st.dom
	}
	return st.conv.convert(st.dom, st.split, st.ex.ExtractSnapshot(&st.es, theta))
}

func (st *snapState[K]) weight() uint64  { return st.es.Weight }
func (st *snapState[K]) packets() uint64 { return st.es.Packets }

func (st *snapState[K]) appendBinary(buf []byte) ([]byte, error) {
	return st.es.AppendBinary(buf)
}

func (st *snapState[K]) suggestTheta(k int) float64 {
	return st.es.SuggestTheta(st.dom, k)
}

func (st *snapState[K]) mergeFrom(snaps []*Snapshot) (snapCore, error) {
	ess := make([]*core.EngineSnapshot[K], 0, len(snaps))
	for _, s := range snaps {
		o, ok := s.impl.(*snapState[K])
		if !ok {
			return nil, errors.New("rhhh: cannot merge snapshots of different hierarchies")
		}
		if o.es.V != st.es.V || o.es.R != st.es.R {
			return nil, fmt.Errorf("rhhh: cannot merge snapshots with different sampling parameters (V=%d,R=%d vs V=%d,R=%d)",
				o.es.V, o.es.R, st.es.V, st.es.R)
		}
		if len(o.es.Nodes) != len(st.es.Nodes) {
			return nil, errors.New("rhhh: cannot merge snapshots of different lattice sizes")
		}
		ess = append(ess, &o.es)
	}
	ds := &snapState[K]{dom: st.dom, split: st.split}
	var sm core.SnapshotMerger[K]
	sm.Merge(&ds.es, ess...)
	return ds, nil
}

// HeavyHitters answers the HHH query from the snapshot: the result is
// exactly what the source monitor would have returned at capture time.
// theta must be in (0, 1].
//
// The returned slice is the snapshot's reusable query buffer: treat it as
// read-only, valid until the snapshot's next HeavyHitters call — copy it
// (e.g. with slices.Clone) to retain or reorder results. Repeated queries
// on an unchanged snapshot reuse the cached extraction state, so a warm
// query performs no allocation.
func (s *Snapshot) HeavyHitters(theta float64) []HeavyHitter {
	if !(theta > 0 && theta <= 1) {
		panic("rhhh: theta must be in (0, 1]")
	}
	if s.impl == nil {
		return nil
	}
	return s.impl.heavyHitters(theta)
}

// N returns the total stream weight the snapshot covers (the source
// monitor's N at capture time; the sum over sources for merged snapshots).
func (s *Snapshot) N() uint64 {
	if s.impl == nil {
		return 0
	}
	return s.impl.weight()
}

// Packets returns the packet count the snapshot covers (equal to N on
// unitary streams).
func (s *Snapshot) Packets() uint64 {
	if s.impl == nil {
		return 0
	}
	return s.impl.packets()
}

// SuggestTheta returns a reporting threshold tuned from the observed skew:
// the k-th largest conditioned-estimate fraction among the fully specified
// candidates, so HeavyHitters at the suggested θ tracks roughly the top k
// monitored keys (the ROADMAP's adaptive-θ rule; standing queries apply it
// per tick via WatchOptions.AutoThetaK). The result is clamped to (0, 1] and
// an empty snapshot returns 1. k must be at least 1.
func (s *Snapshot) SuggestTheta(k int) float64 {
	if k < 1 {
		panic("rhhh: SuggestTheta needs k >= 1")
	}
	if s.impl == nil {
		return 1
	}
	return s.impl.suggestTheta(k)
}

// Merge returns a new snapshot over the union of the sub-streams behind s
// and others — the mergeable-summaries read path: shard locally, merge at
// query time. All snapshots must come from identically configured monitors
// (same hierarchy, V and R); none are modified. The order of s and others
// fixes the merge's deterministic tie-breaking.
func (s *Snapshot) Merge(others ...*Snapshot) (*Snapshot, error) {
	if s.impl == nil {
		return nil, errors.New("rhhh: cannot merge an empty snapshot")
	}
	for _, o := range others {
		if o.impl == nil {
			return nil, errors.New("rhhh: cannot merge an empty snapshot")
		}
		if o.dims != s.dims || o.gran != s.gran || o.ipv6 != s.ipv6 {
			return nil, errors.New("rhhh: cannot merge snapshots of different hierarchies")
		}
	}
	impl, err := s.impl.mergeFrom(append([]*Snapshot{s}, others...))
	if err != nil {
		return nil, err
	}
	return &Snapshot{impl: impl, dims: s.dims, gran: s.gran, ipv6: s.ipv6}, nil
}

// Snapshot wire format, version 1: a 4-byte header ("RHS" + version), the
// hierarchy shape (dims, granularity, flags), then the engine snapshot in
// its own versioned encoding. The encoding is deterministic: equal
// snapshots marshal to equal bytes.
const snapWireVersion = 1

var snapMagic = [3]byte{'R', 'H', 'S'}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	if s.impl == nil {
		return nil, errors.New("rhhh: cannot marshal an empty snapshot")
	}
	var flags byte
	if s.ipv6 {
		flags |= 1
	}
	buf := []byte{snapMagic[0], snapMagic[1], snapMagic[2], snapWireVersion,
		byte(s.dims), byte(s.gran), flags}
	return s.impl.appendBinary(buf)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: it reconstructs a
// queryable, mergeable snapshot from MarshalBinary output, validating the
// header and every structural invariant of the payload (truncated or
// corrupt input is rejected, never silently accepted).
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	if len(data) < 7 {
		return errors.New("rhhh: short snapshot")
	}
	if data[0] != snapMagic[0] || data[1] != snapMagic[1] || data[2] != snapMagic[2] {
		return errors.New("rhhh: bad snapshot magic")
	}
	if data[3] != snapWireVersion {
		return fmt.Errorf("rhhh: unknown snapshot version %d", data[3])
	}
	dims := int(data[4])
	gran := Granularity(data[5])
	flags := data[6]
	if dims != 1 && dims != 2 {
		return fmt.Errorf("rhhh: snapshot has invalid dims %d", dims)
	}
	switch gran {
	case Byte, Nibble, Bit:
	default:
		return fmt.Errorf("rhhh: snapshot has unknown granularity %d", int(gran))
	}
	if flags&^1 != 0 {
		return fmt.Errorf("rhhh: snapshot has unknown flags %#x", flags)
	}
	ipv6 := flags&1 != 0
	body := data[7:]

	var err error
	switch {
	case dims == 1 && !ipv6:
		err = decodeSnapState[uint32](s, hierarchy.NewIPv4OneDim(gran.hier()), split1v4, body)
	case dims == 2 && !ipv6:
		err = decodeSnapState[uint64](s, hierarchy.NewIPv4TwoDim(gran.hier()), split2v4, body)
	case dims == 1 && ipv6:
		err = decodeSnapState[hierarchy.Addr](s, hierarchy.NewIPv6OneDim(gran.hier()), split1v6, body)
	default:
		err = decodeSnapState[hierarchy.AddrPair](s, hierarchy.NewIPv6TwoDim(gran.hier()), split2v6, body)
	}
	if err != nil {
		return err
	}
	s.dims, s.gran, s.ipv6 = dims, gran, ipv6
	return nil
}

func decodeSnapState[K comparable](
	s *Snapshot,
	dom *hierarchy.Domain[K],
	split func(k K, srcBits, dstBits int) (netip.Prefix, netip.Prefix),
	body []byte,
) error {
	es, rest, err := core.DecodeEngineSnapshot[K](body)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("rhhh: %d trailing bytes after snapshot", len(rest))
	}
	if len(es.Nodes) != dom.Size() {
		return fmt.Errorf("rhhh: snapshot has %d lattice nodes, hierarchy has %d",
			len(es.Nodes), dom.Size())
	}
	s.impl = &snapState[K]{es: *es, dom: dom, split: split}
	return nil
}

// Snapshot returns an immutable copy of the monitor's state (see the
// Snapshot type). The monitor must not be updated concurrently with the
// capture (a Sharded wrapper handles that synchronization).
func (m *Monitor) Snapshot() *Snapshot { return m.SnapshotInto(nil) }

// SnapshotInto is Snapshot reusing dst's buffers — zero steady-state
// allocations for periodic capture loops (window rings, state shipping).
// A nil dst allocates. Returns dst.
func (m *Monitor) SnapshotInto(dst *Snapshot) *Snapshot {
	dst = m.impl.snapshotInto(dst)
	dst.dims, dst.gran, dst.ipv6 = m.cfg.Dims, m.cfg.Granularity, m.cfg.IPv6
	return dst
}

// LoadSnapshot replaces the monitor's measurement state with the snapshot's
// — the restore half of snapshot-driven persistence: marshal a snapshot to
// a checkpoint file, and on restart unmarshal it and load it into a monitor
// built with the same configuration (hierarchy, ε, δ, V, R and backend).
// The update RNG is not part of a
// snapshot, so a restored monitor continues on its own random stream; the
// paper's guarantees carry over, bit-for-bit reproducibility across the
// restart does not.
func (m *Monitor) LoadSnapshot(s *Snapshot) error {
	if s == nil || s.impl == nil {
		return errors.New("rhhh: cannot load an empty snapshot")
	}
	if s.dims != m.cfg.Dims || s.gran != m.cfg.Granularity || s.ipv6 != m.cfg.IPv6 {
		return errors.New("rhhh: snapshot hierarchy does not match the monitor")
	}
	return m.impl.loadSnapshot(s.impl)
}
