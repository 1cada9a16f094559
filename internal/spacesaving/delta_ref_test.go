package spacesaving

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"rhhh/internal/fastrand"
)

// refDeltaCoder is the Go-map delta coder DeltaCoder replaced, kept as the
// differential reference: DeltaCoder must produce the same bytes, the same
// decoded snapshots and the same errors.
type refDeltaCoder[K comparable] struct {
	idx   map[K]int32 // encode: base key → base index
	used  []int32     // decode: round stamp per referenced base index
	seen  map[K]int32 // decode: duplicate-key detection
	round int32
}

// AppendDelta appends the delta encoding of sn relative to base and returns
// the extended buffer. putKey appends one key's fixed-width encoding (the
// same codec AppendBinary uses).
func (dc *refDeltaCoder[K]) AppendDelta(buf []byte, sn, base *Snapshot[K], putKey func([]byte, K) []byte) []byte {
	if dc.idx == nil {
		dc.idx = make(map[K]int32, len(base.Keys))
	} else {
		clear(dc.idx)
	}
	for i, k := range base.Keys {
		dc.idx[k] = int32(i)
	}
	buf = append(buf, snapshotDeltaVersion)
	buf = binary.AppendUvarint(buf, uint64(sn.Cap))
	buf = binary.AppendUvarint(buf, sn.N)
	buf = binary.AppendUvarint(buf, sn.Min)
	buf = binary.AppendUvarint(buf, uint64(len(sn.Keys)))
	prev := int32(-1)
	for i, k := range sn.Keys {
		j, ok := dc.idx[k]
		if !ok {
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
func (dc *refDeltaCoder[K]) DecodeDelta(dst *Snapshot[K], b []byte, base *Snapshot[K], getKey func([]byte) (K, []byte, error)) (rest []byte, err error) {
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
	if dc.round == 0 { // wrapped: clear stale stamps
		clear(dc.used)
		dc.round = 1
	}
	if dc.seen == nil {
		dc.seen = make(map[K]int32)
	} else {
		clear(dc.seen)
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
		if _, dup := dc.seen[k]; dup {
			return nil, errors.New("spacesaving: duplicate key in snapshot delta")
		}
		dc.seen[k] = int32(i)
		dst.Keys = append(dst.Keys, k)
		dst.Upper = append(dst.Upper, up)
		dst.Lower = append(dst.Lower, lo)
	}
	dst.gen = snapGenCounter.Add(1)
	return b, nil
}

// randDeltaSnap draws a snapshot over a small key universe, so consecutive
// draws share keys. dups allows repeated keys (a malformed snapshot: the
// encoder must still match the reference on it).
func randDeltaSnap(r *fastrand.Source, universe uint64, dups bool) *Snapshot[uint64] {
	sn := &Snapshot[uint64]{Cap: 1 + int(r.Uint64n(40)), N: r.Uint64n(1 << 20), Min: r.Uint64n(5)}
	n := int(r.Uint64n(min(uint64(sn.Cap), universe) + 1))
	seen := map[uint64]bool{}
	up := 5 + r.Uint64n(300)
	for len(sn.Keys) < n {
		k := r.Uint64n(universe)
		if seen[k] && !dups {
			continue
		}
		seen[k] = true
		up -= min(up, r.Uint64n(4))
		sn.Keys = append(sn.Keys, k)
		sn.Upper = append(sn.Upper, up)
		sn.Lower = append(sn.Lower, up-r.Uint64n(up+1))
	}
	return sn
}

// TestDeltaCoderMatchesMapReference pins the table-based coder to the map
// coder it replaced: on random base/new pairs (repeated keys included) the
// encodings are byte-identical, and on valid encodings, truncations, bit
// flips and crafted entries — repeated and out-of-range base references,
// duplicate keys, bad codes — both decoders agree on the error text, the
// remaining bytes and the decoded snapshot. Both coders are reused across
// the whole run, so stale table state would surface.
func TestDeltaCoderMatchesMapReference(t *testing.T) {
	r := fastrand.New(11)
	var dc DeltaCoder[uint64]
	var ref refDeltaCoder[uint64]
	var got, want Snapshot[uint64]
	decode := func(label string, b []byte, base *Snapshot[uint64]) {
		t.Helper()
		restG, errG := dc.DecodeDelta(&got, b, base, getU64)
		restW, errW := ref.DecodeDelta(&want, b, base, getU64)
		switch {
		case (errG == nil) != (errW == nil):
			t.Fatalf("%s: error %v, reference %v", label, errG, errW)
		case errG != nil:
			if errG.Error() != errW.Error() {
				t.Fatalf("%s: error %q, reference %q", label, errG, errW)
			}
		case len(restG) != len(restW) || !snapshotsEqual(&got, &want):
			t.Fatalf("%s: decode differs from the reference", label)
		}
	}
	for trial := range 3000 {
		universe := 8 + r.Uint64n(120)
		base := randDeltaSnap(r, universe, trial%5 == 0)
		sn := randDeltaSnap(r, universe, trial%7 == 0)
		enc := dc.AppendDelta(nil, sn, base, putU64)
		if w := ref.AppendDelta(nil, sn, base, putU64); string(enc) != string(w) {
			t.Fatalf("trial %d: encoding differs from the reference", trial)
		}
		label := fmt.Sprintf("trial %d", trial)
		decode(label+" valid", enc, base)
		decode(label+" truncated", enc[:r.Uint64n(uint64(len(enc)))], base)
		bad := append([]byte(nil), enc...)
		bad[r.Uint64n(uint64(len(bad)))] ^= byte(1 << r.Uint64n(8))
		decode(label+" flipped", bad, base)

		// Crafted entries: a header, then codes drawn to hit repeated
		// (zigzag 0 after a reference) and out-of-range references, new
		// keys that duplicate referenced ones, and invalid even codes.
		b := []byte{snapshotDeltaVersion}
		entries := 1 + r.Uint64n(12)
		for _, v := range []uint64{64, 100, 1, entries} {
			b = binary.AppendUvarint(b, v)
		}
		for range entries {
			switch r.Uint64n(5) {
			case 0: // reference to base index prev+δ, δ ∈ [−2, 2]
				b = binary.AppendUvarint(b, zigzag(int64(r.Uint64n(5))-2)<<2|1)
			case 1: // far out of range
				b = binary.AppendUvarint(b, zigzag(int64(1000+r.Uint64n(100)))<<2|1)
			case 2: // a new key from the base's universe
				b = append(b, 0)
				b = putU64(b, r.Uint64n(universe))
				b = binary.AppendUvarint(b, 0)
				b = binary.AppendUvarint(b, 0)
			case 3: // changed counts on a reference
				b = binary.AppendUvarint(b, zigzag(int64(r.Uint64n(3)))<<2|3)
				b = binary.AppendUvarint(b, zigzag(-int64(r.Uint64n(3))))
				b = binary.AppendUvarint(b, zigzag(-int64(r.Uint64n(3))))
			default: // invalid even code
				b = binary.AppendUvarint(b, 2+2*r.Uint64n(4))
			}
		}
		decode(label+" crafted", b, base)
	}
}

// TestDeltaCoderWarmZeroAlloc: once its tables have grown, a reused coder
// encodes and decodes without allocating.
func TestDeltaCoderWarmZeroAlloc(t *testing.T) {
	s := New[uint64](1001)
	r := fastrand.New(5)
	for range 200000 {
		s.Increment(r.Uint64n(5000))
	}
	base := s.Snapshot()
	for range 20000 {
		s.Increment(r.Uint64n(5000))
	}
	cur := s.Snapshot()
	var dc DeltaCoder[uint64]
	var dst Snapshot[uint64]
	buf := dc.AppendDelta(nil, cur, base, putU64)
	if _, err := dc.DecodeDelta(&dst, buf, base, getU64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf = dc.AppendDelta(buf[:0], cur, base, putU64)
		if _, err := dc.DecodeDelta(&dst, buf, base, getU64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm delta encode+decode allocates %v times, want 0", allocs)
	}
}

// BenchmarkDeltaCoder times one 1,001-entry node's delta encode and decode
// against a base a few thousand updates older.
func BenchmarkDeltaCoder(b *testing.B) {
	s := New[uint64](1001)
	r := fastrand.New(5)
	for range 200000 {
		s.Increment(r.Uint64n(5000))
	}
	base := s.Snapshot()
	for range 5000 {
		s.Increment(r.Uint64n(5000))
	}
	cur := s.Snapshot()
	var dc DeltaCoder[uint64]
	var dst Snapshot[uint64]
	buf := dc.AppendDelta(nil, cur, base, putU64)
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			buf = dc.AppendDelta(buf[:0], cur, base, putU64)
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := dc.DecodeDelta(&dst, buf, base, getU64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
