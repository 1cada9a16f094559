package resilience

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustStore(t *testing.T, fsys FS) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func recoverAll(t *testing.T, dir string, fsys FS) (full []byte, segs [][]byte) {
	t.Helper()
	s, err := OpenStore(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	full, segs, err = s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return full, segs
}

func TestStoreRoundTrip(t *testing.T) {
	s := mustStore(t, nil)
	if full, segs, err := s.Recover(); err != nil || full != nil || segs != nil {
		t.Fatalf("empty store Recover = %v %v %v, want nil nil nil", full, segs, err)
	}
	if err := s.WriteFull([]byte("full-1")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.AppendSegment([]byte(fmt.Sprintf("seg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	full, segs := recoverAll(t, s.Dir(), nil)
	if string(full) != "full-1" {
		t.Fatalf("full = %q", full)
	}
	if len(segs) != 3 || string(segs[0]) != "seg-1" || string(segs[2]) != "seg-3" {
		t.Fatalf("segs = %q", segs)
	}
}

func TestStoreNewFullPrunesOldGeneration(t *testing.T) {
	s := mustStore(t, nil)
	if err := s.WriteFull([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSegment([]byte("old-seg")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFull([]byte("new")); err != nil {
		t.Fatal(err)
	}
	full, segs := recoverAll(t, s.Dir(), nil)
	if string(full) != "new" || len(segs) != 0 {
		t.Fatalf("recovered %q + %d segs, want new + 0", full, len(segs))
	}
	names, _ := OSFS{}.ReadDir(s.Dir())
	if len(names) != 1 {
		t.Fatalf("old generation not pruned: %v", names)
	}
}

func TestStoreSegmentBeforeFullRejected(t *testing.T) {
	s := mustStore(t, nil)
	if err := s.AppendSegment([]byte("x")); err == nil {
		t.Fatal("AppendSegment before WriteFull succeeded")
	}
}

func TestStoreResumesGenerationAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFull([]byte("full")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSegment([]byte("a")); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendSegment([]byte("b")); err != nil {
		t.Fatal(err)
	}
	_, segs := recoverAll(t, dir, nil)
	if len(segs) != 2 || string(segs[1]) != "b" {
		t.Fatalf("segs after reopen = %q, want [a b]", segs)
	}
}

func corruptTail(t *testing.T, path string, mode string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch mode {
	case "truncate":
		data = data[:len(data)/2]
	case "flip":
		data[len(data)/2] ^= 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreToleratesTruncatedAndCorruptTail(t *testing.T) {
	for _, mode := range []string{"truncate", "flip"} {
		t.Run(mode, func(t *testing.T) {
			s := mustStore(t, nil)
			if err := s.WriteFull([]byte("full")); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3; i++ {
				if err := s.AppendSegment([]byte(fmt.Sprintf("seg-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			corruptTail(t, filepath.Join(s.Dir(), segName(1, 3)), mode)
			full, segs := recoverAll(t, s.Dir(), nil)
			if string(full) != "full" || len(segs) != 2 {
				t.Fatalf("recovered %q + %d segs, want full + 2 (damaged tail dropped)", full, len(segs))
			}
			// A damaged middle segment cuts replay there: seg-3 after it
			// is unreachable even if intact.
			s2 := mustStore(t, nil)
			_ = s2.WriteFull([]byte("full"))
			for i := 1; i <= 3; i++ {
				_ = s2.AppendSegment([]byte(fmt.Sprintf("seg-%d", i)))
			}
			corruptTail(t, filepath.Join(s2.Dir(), segName(1, 2)), mode)
			_, segs = recoverAll(t, s2.Dir(), nil)
			if len(segs) != 1 || string(segs[0]) != "seg-1" {
				t.Fatalf("segs = %q, want [seg-1]", segs)
			}
		})
	}
}

func TestStoreFallsBackPastDamagedFull(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.WriteFull([]byte("gen1"))
	_ = s.AppendSegment([]byte("gen1-seg"))
	// Write generation 2 without pruning generation 1 (simulate by
	// copying gen 1 files aside and restoring them).
	g1full, _ := os.ReadFile(filepath.Join(dir, fullName(1)))
	g1seg, _ := os.ReadFile(filepath.Join(dir, segName(1, 1)))
	_ = s.WriteFull([]byte("gen2"))
	_ = os.WriteFile(filepath.Join(dir, fullName(1)), g1full, 0o644)
	_ = os.WriteFile(filepath.Join(dir, segName(1, 1)), g1seg, 0o644)
	corruptTail(t, filepath.Join(dir, fullName(2)), "flip")

	full, segs := recoverAll(t, dir, nil)
	if string(full) != "gen1" || len(segs) != 1 || string(segs[0]) != "gen1-seg" {
		t.Fatalf("recovered %q + %q, want gen1 + [gen1-seg]", full, segs)
	}

	// A full written after the fallback must skip every generation named
	// by any file — the damaged generation's stray segments must never
	// replay onto a new full reusing its number.
	_ = os.WriteFile(filepath.Join(dir, segName(3, 1)), nil, 0o644) // stray future-gen garbage
	s3, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s3.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s3.WriteFull([]byte("gen4")); err != nil {
		t.Fatal(err)
	}
	if gen, _ := s3.Generation(); gen != 4 {
		t.Fatalf("generation after fallback full = %d, want 4", gen)
	}
	full, segs = recoverAll(t, dir, nil)
	if string(full) != "gen4" || len(segs) != 0 {
		t.Fatalf("recovered %q + %d segs, want gen4 + 0", full, len(segs))
	}
}

// TestStoreFaultsNeverCorruptRecoverableState is the checkpoint half of
// the chaos soak: under seeded write/rename/sync fault injection, the
// recoverable state must always equal the last write the store reported
// as durable.
func TestStoreFaultsNeverCorruptRecoverableState(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("seed %d (reproduce with this seed on failure)", seed)
			dir := t.TempDir()
			ffs := NewFaultFS(nil, seed, 0.3)
			s, err := OpenStore(dir, ffs)
			if err != nil {
				t.Fatal(err)
			}
			// The durable reference: last acked full + acked segments.
			var wantFull []byte
			var wantSegs [][]byte
			for i := 0; i < 60; i++ {
				payload := []byte(fmt.Sprintf("payload-%d", i))
				if i%10 == 0 || wantFull == nil {
					if err := s.WriteFull(payload); err == nil {
						wantFull = payload
						wantSegs = wantSegs[:0]
					}
				} else {
					if err := s.AppendSegment(payload); err == nil {
						wantSegs = append(wantSegs, payload)
					}
				}
				// Recover through a fresh store (clean FS — recovery
				// itself is not under test here) and compare.
				full, segs := recoverAll(t, dir, nil)
				if !bytes.Equal(full, wantFull) {
					t.Fatalf("step %d: recovered full %q, want %q", i, full, wantFull)
				}
				if len(segs) < len(wantSegs) {
					t.Fatalf("step %d: recovered %d segs, want >= %d acked", i, len(segs), len(wantSegs))
				}
				for j := range wantSegs {
					if !bytes.Equal(segs[j], wantSegs[j]) {
						t.Fatalf("step %d: seg %d = %q, want %q", i, j, segs[j], wantSegs[j])
					}
				}
			}
			if ffs.Injected() == 0 {
				t.Fatal("no faults injected; raise the rate")
			}
		})
	}
}

// TestStoreAdoptsSingleFile covers the three states adoption can leave: a
// single-file checkpoint at the store's path becomes generation 1; a
// leftover <path>.pre-store beside a store with no recoverable generation
// (a crash before its generation 1 was durable) is adopted; a leftover
// beside a durable generation (a crash before its removal) is removed,
// and the store keeps its own state.
func TestStoreAdoptsSingleFile(t *testing.T) {
	open := func(t *testing.T, dir string) (full []byte, segs [][]byte) {
		t.Helper()
		full, segs = recoverAll(t, dir, nil)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("store path is not a directory: %v, %v", fi, err)
		}
		if _, err := os.Stat(dir + ".pre-store"); !os.IsNotExist(err) {
			t.Fatalf("leftover not removed: %v", err)
		}
		return full, segs
	}
	t.Run("file", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		if err := os.WriteFile(dir, []byte("single"), 0o644); err != nil {
			t.Fatal(err)
		}
		full, segs := open(t, dir)
		if string(full) != "single" || len(segs) != 0 {
			t.Fatalf("recovered %q + %d segs, want single + 0", full, len(segs))
		}
		if names, _ := (OSFS{}).ReadDir(dir); len(names) != 1 || names[0] != fullName(1) {
			t.Fatalf("store holds %v, want generation 1 alone", names)
		}
	})
	t.Run("leftover beside empty store", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+".pre-store", []byte("single"), 0o644); err != nil {
			t.Fatal(err)
		}
		if full, _ := open(t, dir); string(full) != "single" {
			t.Fatalf("recovered %q, want the leftover", full)
		}
	})
	t.Run("leftover beside durable generation", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		s, err := OpenStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteFull([]byte("durable")); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendSegment([]byte("seg")); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+".pre-store", []byte("single"), 0o644); err != nil {
			t.Fatal(err)
		}
		full, segs := open(t, dir)
		if string(full) != "durable" || len(segs) != 1 {
			t.Fatalf("recovered %q + %d segs, want durable + 1", full, len(segs))
		}
	})
}
