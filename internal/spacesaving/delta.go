package spacesaving

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshot delta encoding, version 1: one snapshot expressed relative to a
// base snapshot both sides already share. The steady-state observation behind
// it: between two reports most monitored keys keep their counts and roughly
// their rank, so an entry is usually "the key at base position j, counts
// unchanged" — one small uvarint — instead of a full key plus two count
// varints (~15 bytes for a 2D key). Layout:
//
//	byte    version (1)
//	uvarint capacity
//	uvarint n
//	uvarint min
//	uvarint number of entries
//	entries × { uvarint code, ... } in the NEW snapshot order:
//	  code == 0            new key: key (caller codec), uvarint upper,
//	                       uvarint upper−lower
//	  code&1 == 1          base reference: base index = prevIndex +
//	                       zigzag⁻¹(code>>2) (prevIndex starts at −1);
//	                       code&2 set means the counts moved, followed by
//	                       zigzag Δupper, zigzag Δlower
//
// Because the new order is explicit and every entry is fully determined by
// the base plus the delta, decode(base, encode(base, sn)) reproduces sn
// bit-for-bit — the property the fault-tolerant report protocol is built on.
const snapshotDeltaVersion = 1

// zigzag maps a signed delta onto the unsigned varint space.
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// DeltaCoder encodes and decodes snapshot deltas, retaining all scratch (the
// base key index, reference stamps, the duplicate-key table) across calls so
// steady-state coding allocates nothing beyond the output buffer. Both
// tables are flat linear-probing arrays hashed like Summary's index; the
// decode tables are stamped with a round number instead of being cleared.
// Not safe for concurrent use.
type DeltaCoder[K comparable] struct {
	hash  func(K) uint32
	idx   []int32    // encode: base index + 1 per slot, 0 = empty
	used  []int32    // decode: round stamp per referenced base index
	seen  []seenSlot // decode: decoded keys, live when stamped this round
	round int32
}

// seenSlot is one duplicate-check slot: position pos of the decoded keys,
// live while round matches the coder's.
type seenSlot struct{ round, pos int32 }

// AppendDelta appends the delta encoding of sn relative to base and returns
// the extended buffer. putKey appends one key's fixed-width encoding (the
// same codec AppendBinary uses).
func (dc *DeltaCoder[K]) AppendDelta(buf []byte, sn, base *Snapshot[K], putKey func([]byte, K) []byte) []byte {
	if dc.hash == nil {
		dc.hash = hashFuncFor[K]()
	}
	size := 16
	for size < 2*len(base.Keys) {
		size <<= 1
	}
	if cap(dc.idx) < size {
		dc.idx = make([]int32, size)
	} else {
		dc.idx = dc.idx[:size]
		clear(dc.idx)
	}
	mask := uint32(size - 1)
	for i, k := range base.Keys {
		// A repeated base key maps to its last position.
		p := dc.hash(k) & mask
		for dc.idx[p] != 0 && base.Keys[dc.idx[p]-1] != k {
			p = (p + 1) & mask
		}
		dc.idx[p] = int32(i) + 1
	}
	buf = append(buf, snapshotDeltaVersion)
	buf = binary.AppendUvarint(buf, uint64(sn.Cap))
	buf = binary.AppendUvarint(buf, sn.N)
	buf = binary.AppendUvarint(buf, sn.Min)
	buf = binary.AppendUvarint(buf, uint64(len(sn.Keys)))
	prev := int32(-1)
	for i, k := range sn.Keys {
		p := dc.hash(k) & mask
		for dc.idx[p] != 0 && base.Keys[dc.idx[p]-1] != k {
			p = (p + 1) & mask
		}
		j := dc.idx[p] - 1
		if j < 0 {
			buf = append(buf, 0)
			buf = putKey(buf, k)
			buf = binary.AppendUvarint(buf, sn.Upper[i])
			buf = binary.AppendUvarint(buf, sn.Upper[i]-sn.Lower[i])
			continue
		}
		code := zigzag(int64(j)-int64(prev))<<2 | 1
		changed := sn.Upper[i] != base.Upper[j] || sn.Lower[i] != base.Lower[j]
		if changed {
			code |= 2
		}
		buf = binary.AppendUvarint(buf, code)
		if changed {
			buf = binary.AppendUvarint(buf, zigzag(int64(sn.Upper[i])-int64(base.Upper[j])))
			buf = binary.AppendUvarint(buf, zigzag(int64(sn.Lower[i])-int64(base.Lower[j])))
		}
		prev = j
	}
	return buf
}

// DecodeDelta reconstructs the snapshot encoded by AppendDelta into dst and
// returns the remaining bytes. dst must not alias base. All structural
// invariants are validated — truncation, out-of-range or repeated base
// references, duplicate keys, unsorted upper bounds, count underflow — so a
// successful decode is exactly as trustworthy as a full Snapshot.Decode; on
// error dst's contents are unspecified (callers stage into scratch and swap).
func (dc *DeltaCoder[K]) DecodeDelta(dst *Snapshot[K], b []byte, base *Snapshot[K], getKey func([]byte) (K, []byte, error)) (rest []byte, err error) {
	if dst == base {
		return nil, errors.New("spacesaving: delta decode destination aliases base")
	}
	if len(b) < 1 {
		return nil, errors.New("spacesaving: short snapshot delta")
	}
	if b[0] != snapshotDeltaVersion {
		return nil, fmt.Errorf("spacesaving: unknown snapshot delta version %d", b[0])
	}
	b = b[1:]
	var capacity, n, min, entries uint64
	for _, p := range []*uint64{&capacity, &n, &min, &entries} {
		v, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, errors.New("spacesaving: truncated snapshot delta header")
		}
		*p, b = v, b[w:]
	}
	if capacity < 1 || capacity > snapMaxCap {
		return nil, fmt.Errorf("spacesaving: snapshot delta capacity %d out of range", capacity)
	}
	if entries > capacity {
		return nil, fmt.Errorf("spacesaving: snapshot delta has %d entries for capacity %d", entries, capacity)
	}
	if cap(dc.used) < base.Len() {
		dc.used = make([]int32, base.Len())
	}
	dc.used = dc.used[:base.Len()]
	dc.round++
	if dc.round <= 0 { // wrapped: clear stale stamps
		clear(dc.used)
		clear(dc.seen)
		dc.round = 1
	}
	if dc.hash == nil {
		dc.hash = hashFuncFor[K]()
	}
	dst.reset()
	dst.Cap = int(capacity)
	dst.N = n
	dst.Min = min
	prevRef := int64(-1)
	prevUp := ^uint64(0)
	for i := uint64(0); i < entries; i++ {
		code, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, errors.New("spacesaving: truncated snapshot delta entry")
		}
		b = b[w:]
		var k K
		var up, lo uint64
		switch {
		case code == 0: // new key
			var rest []byte
			k, rest, err = getKey(b)
			if err != nil {
				return nil, err
			}
			b = rest
			up, w = binary.Uvarint(b)
			if w <= 0 {
				return nil, errors.New("spacesaving: truncated snapshot delta entry")
			}
			b = b[w:]
			var e uint64
			e, w = binary.Uvarint(b)
			if w <= 0 {
				return nil, errors.New("spacesaving: truncated snapshot delta entry")
			}
			b = b[w:]
			if e > up {
				return nil, fmt.Errorf("spacesaving: snapshot delta error %d exceeds upper bound %d", e, up)
			}
			lo = up - e
		case code&1 == 1: // base reference
			ref := prevRef + unzigzag(code>>2)
			if ref < 0 || ref >= int64(base.Len()) {
				return nil, fmt.Errorf("spacesaving: snapshot delta base reference %d out of range", ref)
			}
			if dc.used[ref] == dc.round {
				return nil, fmt.Errorf("spacesaving: snapshot delta references base entry %d twice", ref)
			}
			dc.used[ref] = dc.round
			prevRef = ref
			k = base.Keys[ref]
			up, lo = base.Upper[ref], base.Lower[ref]
			if code&2 != 0 {
				du, w := binary.Uvarint(b)
				if w <= 0 {
					return nil, errors.New("spacesaving: truncated snapshot delta entry")
				}
				b = b[w:]
				dl, w := binary.Uvarint(b)
				if w <= 0 {
					return nil, errors.New("spacesaving: truncated snapshot delta entry")
				}
				b = b[w:]
				nu := int64(up) + unzigzag(du)
				nl := int64(lo) + unzigzag(dl)
				if nu < 0 || nl < 0 || nl > nu {
					return nil, errors.New("spacesaving: snapshot delta count underflow")
				}
				up, lo = uint64(nu), uint64(nl)
			}
		default:
			return nil, fmt.Errorf("spacesaving: invalid snapshot delta entry code %d", code)
		}
		if up > prevUp {
			return nil, errors.New("spacesaving: snapshot delta upper bounds not sorted")
		}
		prevUp = up
		if dc.markSeen(dst.Keys, k) {
			return nil, errors.New("spacesaving: duplicate key in snapshot delta")
		}
		dst.Keys = append(dst.Keys, k)
		dst.Upper = append(dst.Upper, up)
		dst.Lower = append(dst.Lower, lo)
	}
	dst.gen = snapGenCounter.Add(1)
	return b, nil
}

// markSeen records k, about to be appended to keys, in the duplicate-key
// table, and reports whether keys already holds it. The table doubles (and
// re-stamps keys) when it would pass half full, so its size follows the
// entries actually decoded, never the header's claim.
func (dc *DeltaCoder[K]) markSeen(keys []K, k K) bool {
	if 2*(len(keys)+1) > len(dc.seen) {
		size := max(16, 2*len(dc.seen))
		for size < 2*(len(keys)+1) {
			size <<= 1
		}
		dc.seen = make([]seenSlot, size)
		mask := uint32(size - 1)
		for i, key := range keys {
			p := dc.hash(key) & mask
			for dc.seen[p].round == dc.round {
				p = (p + 1) & mask
			}
			dc.seen[p] = seenSlot{round: dc.round, pos: int32(i)}
		}
	}
	mask := uint32(len(dc.seen) - 1)
	p := dc.hash(k) & mask
	for dc.seen[p].round == dc.round {
		if keys[dc.seen[p].pos] == k {
			return true
		}
		p = (p + 1) & mask
	}
	dc.seen[p] = seenSlot{round: dc.round, pos: int32(len(keys))}
	return false
}

// CopyFrom makes sn a deep copy of src, reusing sn's arrays. The copy is a
// rewrite, so sn gets a fresh mutation generation of its own.
func (sn *Snapshot[K]) CopyFrom(src *Snapshot[K]) {
	sn.Keys = append(sn.Keys[:0], src.Keys...)
	sn.Upper = append(sn.Upper[:0], src.Upper...)
	sn.Lower = append(sn.Lower[:0], src.Lower...)
	sn.N, sn.Min, sn.Cap = src.N, src.Min, src.Cap
	sn.gen = snapGenCounter.Add(1)
}
