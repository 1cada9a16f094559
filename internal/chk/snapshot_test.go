package chk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rhhh/internal/fastrand"
	"rhhh/internal/spacesaving"
)

func putU64(b []byte, k uint64) []byte { return binary.BigEndian.AppendUint64(b, k) }

func getU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errors.New("short key")
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// loadedSketch builds a contended sketch for snapshot tests.
func loadedSketch(capacity int, seed uint64) *Sketch[uint64] {
	s := New[uint64](capacity, seed)
	r := fastrand.New(seed + 100)
	for i := 0; i < 50_000; i++ {
		s.IncrementBy(r.Uint64n(uint64(capacity*8)), 1+r.Uint64n(3))
	}
	return s
}

// snapSet flattens a snapshot to a key→count map for order-insensitive
// comparison: a reload may home keys in different slots, which permutes
// ForEach tie order, but the monitored multiset must survive exactly.
func snapSet(sn *spacesaving.Snapshot[uint64]) map[uint64]uint64 {
	m := make(map[uint64]uint64, sn.Len())
	for i, k := range sn.Keys {
		m[k] = sn.Upper[i]
	}
	return m
}

func TestSnapshotMetadata(t *testing.T) {
	s := loadedSketch(64, 1)
	sn := s.Snapshot()
	if sn.N != s.N() || sn.Min != s.MinCount() || sn.Cap != s.Capacity() {
		t.Fatalf("snapshot metadata N=%d Min=%d Cap=%d vs sketch %d/%d/%d",
			sn.N, sn.Min, sn.Cap, s.N(), s.MinCount(), s.Capacity())
	}
	if sn.Len() != s.Len() {
		t.Fatalf("snapshot Len = %d, sketch Len = %d", sn.Len(), s.Len())
	}
	if sn.Gen() == 0 {
		t.Fatal("SnapshotInto did not stamp a generation")
	}
	for i := range sn.Keys {
		if sn.Upper[i] != sn.Lower[i] {
			t.Fatalf("entry %d: Upper %d != Lower %d (CHK keeps point estimates)",
				i, sn.Upper[i], sn.Lower[i])
		}
		if i > 0 && sn.Upper[i] > sn.Upper[i-1] {
			t.Fatalf("snapshot not sorted by descending count at %d", i)
		}
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	s := loadedSketch(64, 2)
	sn := s.Snapshot()
	fresh := New[uint64](64, 999) // different seed: placement may differ
	if err := fresh.LoadSnapshot(sn); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if fresh.N() != s.N() || fresh.Len() != s.Len() {
		t.Fatalf("reloaded N=%d Len=%d, want %d/%d", fresh.N(), fresh.Len(), s.N(), s.Len())
	}
	if fresh.MinCount() != s.MinCount() {
		t.Fatalf("reloaded MinCount = %d, want %d", fresh.MinCount(), s.MinCount())
	}
	got, want := snapSet(fresh.Snapshot()), snapSet(sn)
	if len(got) != len(want) {
		t.Fatalf("reloaded %d keys, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("key %d: reloaded count %d, want %d", k, got[k], c)
		}
	}
	// The reloaded sketch keeps working: updates to restored keys accumulate.
	k0 := sn.Keys[0]
	up0, _ := fresh.Bounds(k0)
	fresh.IncrementBy(k0, 5)
	if up, _ := fresh.Bounds(k0); up != up0+5 {
		t.Fatalf("update after reload: Bounds = %d, want %d", up, up0+5)
	}
}

func TestSnapshotEncodeDecodeLoad(t *testing.T) {
	s := loadedSketch(64, 3)
	enc := s.Snapshot().AppendBinary(nil, putU64)
	var dec spacesaving.Snapshot[uint64]
	rest, err := dec.Decode(enc, getU64)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("Decode left %d trailing bytes", len(rest))
	}
	fresh := New[uint64](64, 4)
	if err := fresh.LoadSnapshot(&dec); err != nil {
		t.Fatalf("LoadSnapshot(decoded): %v", err)
	}
	if re := fresh.Snapshot().AppendBinary(nil, putU64); !bytes.Equal(enc, re) {
		// Re-encoding may permute equal-count ties; compare as sets.
		got, want := snapSet(fresh.Snapshot()), snapSet(&dec)
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("decoded key %d: count %d, want %d", k, got[k], c)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d keys, want %d", len(got), len(want))
		}
	}
}

func TestSnapshotDecodeRejectsCorruptInput(t *testing.T) {
	s := loadedSketch(32, 5)
	enc := s.Snapshot().AppendBinary(nil, putU64)
	var dec spacesaving.Snapshot[uint64]
	// Every truncation must error, never panic.
	for i := 0; i < len(enc); i++ {
		if _, err := dec.Decode(enc[:i], getU64); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", i)
		}
	}
	// Bit flips: decode may succeed (the flip can land in a count), but the
	// sketch must either reject the result or load it without panicking.
	fresh := New[uint64](32, 6)
	for i := 0; i < len(enc); i++ {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x80
		var d spacesaving.Snapshot[uint64]
		if _, err := d.Decode(bad, getU64); err != nil {
			continue
		}
		_ = fresh.LoadSnapshot(&d) // must not panic; error is acceptable
	}
}

func TestLoadSnapshotTooBig(t *testing.T) {
	big := loadedSketch(256, 7)
	sn := big.Snapshot()
	if sn.Len() <= 8 {
		t.Fatalf("test needs a big snapshot, got %d keys", sn.Len())
	}
	small := New[uint64](8, 8)
	small.Increment(42)
	before := small.Snapshot().AppendBinary(nil, putU64)
	if err := small.LoadSnapshot(sn); err == nil {
		t.Fatal("LoadSnapshot accepted a snapshot larger than capacity")
	}
	if after := small.Snapshot().AppendBinary(nil, putU64); !bytes.Equal(before, after) {
		t.Fatal("failed LoadSnapshot modified the sketch")
	}
}

// TestLoadSnapshotStash forces the displacement walk to fail: more keys
// sharing one candidate-bucket pair than the pair has slots. The overflow
// must land in the stash and stay fully monitored.
func TestLoadSnapshotStash(t *testing.T) {
	s := New[uint64](16, 9) // 4 buckets × 4 slots
	// Hunt for 2·slotsPerBucket+1 keys whose candidate pair is identical.
	type pair struct{ a, b uint32 }
	groups := make(map[pair][]uint64)
	var colliding []uint64
	for k := uint64(0); k < 1_000_000; k++ {
		h := s.hash(s.seed, k)
		b1 := h & s.bktMask
		b2 := altBucket(b1, fpOf(h), s.bktMask)
		if b2 < b1 {
			b1, b2 = b2, b1
		}
		p := pair{b1, b2}
		groups[p] = append(groups[p], k)
		if len(groups[p]) == 2*slotsPerBucket+1 {
			colliding = groups[p]
			break
		}
	}
	if colliding == nil {
		t.Fatal("could not find a colliding key set (hash anomaly?)")
	}
	sn := &spacesaving.Snapshot[uint64]{Cap: 16}
	for i, k := range colliding {
		sn.Keys = append(sn.Keys, k)
		sn.Upper = append(sn.Upper, uint64(100-i))
		sn.Lower = append(sn.Lower, uint64(100-i))
		sn.N += uint64(100 - i)
	}
	if err := s.LoadSnapshot(sn); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if len(s.stash) == 0 {
		t.Fatal("colliding key set did not overflow into the stash")
	}
	if s.Len() != len(colliding) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(colliding))
	}
	for i, k := range colliding {
		up, lo := s.Bounds(k)
		if want := uint64(100 - i); up != want || lo != want {
			t.Fatalf("key %d: Bounds = (%d, %d), want %d", k, up, lo, want)
		}
	}
	// Stashed keys take updates and appear in snapshots.
	last := colliding[len(colliding)-1]
	s.IncrementBy(last, 7)
	reSn := s.Snapshot()
	if got := snapSet(reSn)[last]; got != uint64(100-(len(colliding)-1))+7 {
		t.Fatalf("stashed key count after update = %d", got)
	}
	if reSn.Len() != len(colliding) {
		t.Fatalf("re-snapshot Len = %d, want %d", reSn.Len(), len(colliding))
	}
}

// FuzzDecodeCHKSnapshot drives arbitrary bytes through the snapshot codec
// and, when decode succeeds, through LoadSnapshot and a re-snapshot: errors
// must be returned, never panic.
func FuzzDecodeCHKSnapshot(f *testing.F) {
	s := loadedSketch(32, 10)
	f.Add(s.Snapshot().AppendBinary(nil, putU64))
	empty := New[uint64](8, 11)
	f.Add(empty.Snapshot().AppendBinary(nil, putU64))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var sn spacesaving.Snapshot[uint64]
		if _, err := sn.Decode(data, getU64); err != nil {
			return
		}
		dst := New[uint64](16, 12)
		if err := dst.LoadSnapshot(&sn); err != nil {
			return
		}
		re := dst.Snapshot()
		if re.Len() > dst.Capacity() {
			t.Fatalf("re-snapshot has %d keys, capacity %d", re.Len(), dst.Capacity())
		}
	})
}
