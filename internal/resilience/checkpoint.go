package resilience

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rhhh/internal/telemetry"
)

// The checkpoint store is a crash-safe generation log: each full
// checkpoint starts a generation (full-<gen>.ckpt), incremental journal
// segments extend it (seg-<gen>-<seq>.jrnl), and recovery replays the
// newest generation whose full file validates, stopping at the first
// missing or invalid segment — a truncated tail (crash mid-write, power
// loss after rename but before the data hit the platter) loses at most
// the segments past the last durable one, never the generation.
//
// Every file is written tmp+fsync+rename(+dir fsync), so a failed or
// interrupted write leaves only a *.tmp orphan that recovery ignores and
// the next open sweeps. Each file is framed self-validatingly:
//
//	magic[4] version[1] gen[8] seq[4] len[4] payload[len] crc32c[4]
//
// with the CRC (Castagnoli) covering header+payload.

// FS is the filesystem surface the store writes through — injectable so
// the chaos harness can interpose disk-full, short-write and rename
// failures without touching the store logic.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	// WriteFile creates (truncating) path, writes data and fsyncs it. On
	// error the file may exist with a prefix of data.
	WriteFile(path string, data []byte) error
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// SyncDir fsyncs the directory so a preceding rename is durable.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (OSFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (OSFS) Remove(path string) error             { return os.Remove(path) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// StoreStats is the checkpoint telemetry block.
type StoreStats struct {
	Fulls    telemetry.Cell // full checkpoints durably written
	Segments telemetry.Cell // journal segments durably written
	Failures telemetry.Cell // checkpoint writes that failed (state unchanged)
	Bytes    telemetry.Cell // payload bytes durably written
	Gen      telemetry.Cell // current checkpoint generation
}

// Register wires the block under the hhh_resilience_checkpoint_* names.
func (s *StoreStats) Register(r *telemetry.Registry, labels string) {
	r.Counter("hhh_resilience_checkpoint_fulls_total", labels, "Full checkpoints durably written.", &s.Fulls)
	r.Counter("hhh_resilience_checkpoint_segments_total", labels, "Incremental journal segments durably written.", &s.Segments)
	r.Counter("hhh_resilience_checkpoint_failures_total", labels, "Checkpoint writes that failed without corrupting state.", &s.Failures)
	r.Counter("hhh_resilience_checkpoint_bytes_total", labels, "Checkpoint payload bytes durably written.", &s.Bytes)
	r.Gauge("hhh_resilience_checkpoint_generation", labels, "Current checkpoint generation.", &s.Gen)
}

const (
	frameVersion  = 1
	frameHeadLen  = 4 + 1 + 8 + 4 + 4
	frameTrailLen = 4
)

var (
	magicFull = [4]byte{'R', 'C', 'K', 'P'}
	magicSeg  = [4]byte{'R', 'C', 'K', 'J'}

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Store is the on-disk checkpoint log. Methods are not concurrency-safe;
// the checkpointing goroutine owns the store.
type Store struct {
	dir    string
	fs     FS
	gen    uint64 // current generation (0 = none yet)
	seq    uint32 // last segment seq written in gen
	maxGen uint64 // highest generation named by any file, valid or not —
	// a new full must skip past damaged generations so their leftover
	// segments can never be replayed onto it
	buf   []byte // frame scratch, reused
	Stats StoreStats
}

// OpenStore opens (creating if needed) a checkpoint directory. fsys nil
// means the real filesystem. Orphaned *.tmp files from interrupted writes
// are swept; the store resumes the newest recoverable generation, so
// segments appended after a restart extend the same journal Recover will
// replay. A regular file at dir, a single-file checkpoint whose bytes are a
// full payload, is adopted as generation 1 (see adopt).
func OpenStore(dir string, fsys FS) (*Store, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	dir = filepath.Clean(dir)
	// Only a regular file reads without error: a directory fails with
	// EISDIR, a missing path with ErrNotExist.
	if _, err := fsys.ReadFile(dir); err == nil {
		if err := fsys.Rename(dir, dir+".pre-store"); err != nil {
			return nil, fmt.Errorf("resilience: moving single-file checkpoint aside: %w", err)
		}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("resilience: checkpoint dir: %w", err)
	}
	s := &Store{dir: dir, fs: fsys}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resilience: checkpoint dir: %w", err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			_ = fsys.Remove(filepath.Join(dir, n))
		}
	}
	gen, seq, _, _, err := s.scan()
	if err != nil {
		return nil, err
	}
	s.gen, s.seq = gen, seq
	s.Stats.Gen.Store(gen)
	if err := s.adopt(); err != nil {
		return nil, err
	}
	return s, nil
}

// adopt finishes moving a single-file checkpoint, renamed by OpenStore to
// <dir>.pre-store, into the store: it writes the bytes as the first full
// checkpoint, makes the rename and the directory durable, and only then
// removes the renamed file, so a crash at any step leaves the state in one
// of the two. A leftover beside a recoverable generation, which holds its
// state or a newer one, is only removed.
func (s *Store) adopt() error {
	old := s.dir + ".pre-store"
	data, err := s.fs.ReadFile(old)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err == nil && s.gen == 0 {
		err = s.WriteFull(data)
	}
	if err == nil {
		err = s.fs.SyncDir(filepath.Dir(s.dir))
	}
	if err == nil {
		err = s.fs.Remove(old)
	}
	if err != nil {
		return fmt.Errorf("resilience: adopting single-file checkpoint: %w", err)
	}
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Generation returns the current generation and the last segment sequence
// within it.
func (s *Store) Generation() (gen uint64, seq uint32) { return s.gen, s.seq }

func fullName(gen uint64) string            { return fmt.Sprintf("full-%016x.ckpt", gen) }
func segName(gen uint64, seq uint32) string { return fmt.Sprintf("seg-%016x-%08x.jrnl", gen, seq) }

// frame renders one self-validating file image into s.buf.
func (s *Store) frame(magic [4]byte, gen uint64, seq uint32, payload []byte) []byte {
	need := frameHeadLen + len(payload) + frameTrailLen
	if cap(s.buf) < need {
		s.buf = make([]byte, 0, need)
	}
	b := s.buf[:0]
	b = append(b, magic[:]...)
	b = append(b, frameVersion)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint32(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	s.buf = b
	return b
}

// parseFrame validates one file image, returning its payload (aliasing b).
func parseFrame(magic [4]byte, wantGen uint64, wantSeq uint32, b []byte) ([]byte, error) {
	if len(b) < frameHeadLen+frameTrailLen {
		return nil, errors.New("truncated header")
	}
	if [4]byte(b[:4]) != magic {
		return nil, errors.New("bad magic")
	}
	if b[4] != frameVersion {
		return nil, fmt.Errorf("unknown version %d", b[4])
	}
	gen := binary.LittleEndian.Uint64(b[5:])
	seq := binary.LittleEndian.Uint32(b[13:])
	n := int(binary.LittleEndian.Uint32(b[17:]))
	if gen != wantGen || seq != wantSeq {
		return nil, fmt.Errorf("frame is gen %d seq %d, file name says gen %d seq %d", gen, seq, wantGen, wantSeq)
	}
	if len(b) != frameHeadLen+n+frameTrailLen {
		return nil, fmt.Errorf("truncated: %d bytes, frame says %d", len(b), frameHeadLen+n+frameTrailLen)
	}
	body := b[:frameHeadLen+n]
	want := binary.LittleEndian.Uint32(b[frameHeadLen+n:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, errors.New("CRC mismatch")
	}
	return b[frameHeadLen : frameHeadLen+n], nil
}

// writeDurable writes one framed file via tmp+fsync+rename+dirsync. On any
// error the target name is untouched (a tmp orphan may remain; it is
// ignored by recovery and swept on the next open).
func (s *Store) writeDurable(name string, frame []byte) error {
	tmp := filepath.Join(s.dir, name+".tmp")
	final := filepath.Join(s.dir, name)
	if err := s.fs.WriteFile(tmp, frame); err != nil {
		s.Stats.Failures.Add(1)
		return err
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.Stats.Failures.Add(1)
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		// The rename happened but may not be durable. Roll the visible
		// name back (best-effort) so a reported failure always means
		// "recoverable state unchanged" — the caller keeps its delta base
		// and will retry. If the remove itself fails or we crash first,
		// recovery still accepts the file: it is complete and valid.
		_ = s.fs.Remove(final)
		s.Stats.Failures.Add(1)
		return err
	}
	return nil
}

// WriteFull durably writes a full checkpoint, starting a new generation,
// then prunes every older generation. On error the previous generation
// remains the recoverable one.
func (s *Store) WriteFull(payload []byte) error {
	gen := max(s.gen, s.maxGen) + 1
	if err := s.writeDurable(fullName(gen), s.frame(magicFull, gen, 0, payload)); err != nil {
		return err
	}
	s.gen, s.seq, s.maxGen = gen, 0, gen
	s.Stats.Fulls.Add(1)
	s.Stats.Bytes.Add(uint64(len(payload)))
	s.Stats.Gen.Store(gen)
	s.prune(gen)
	return nil
}

// AppendSegment durably appends one incremental journal segment to the
// current generation. A full checkpoint must exist first.
func (s *Store) AppendSegment(payload []byte) error {
	if s.gen == 0 {
		return errors.New("resilience: AppendSegment before any full checkpoint")
	}
	seq := s.seq + 1
	if err := s.writeDurable(segName(s.gen, seq), s.frame(magicSeg, s.gen, seq, payload)); err != nil {
		return err
	}
	s.seq = seq
	s.Stats.Segments.Add(1)
	s.Stats.Bytes.Add(uint64(len(payload)))
	return nil
}

// prune removes files of generations older than keep. Best-effort: errors
// are ignored (stray old files are harmless, recovery picks the newest
// valid generation).
func (s *Store) prune(keep uint64) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		var gen uint64
		var seq uint32
		if _, err := fmt.Sscanf(n, "full-%016x.ckpt", &gen); err == nil && gen < keep {
			_ = s.fs.Remove(filepath.Join(s.dir, n))
			continue
		}
		if _, err := fmt.Sscanf(n, "seg-%016x-%08x.jrnl", &gen, &seq); err == nil && gen < keep {
			_ = s.fs.Remove(filepath.Join(s.dir, n))
		}
	}
}

// scan finds the newest generation with a valid full checkpoint and its
// contiguous prefix of valid segments. Returns gen 0 when the directory
// holds no recoverable state.
func (s *Store) scan() (gen uint64, seq uint32, full []byte, segs [][]byte, err error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("resilience: checkpoint dir: %w", err)
	}
	var fullGens []uint64
	segsByGen := make(map[uint64][]uint32)
	for _, n := range names {
		var g uint64
		var q uint32
		if _, err := fmt.Sscanf(n, "full-%016x.ckpt", &g); err == nil && n == fullName(g) {
			fullGens = append(fullGens, g)
			s.maxGen = max(s.maxGen, g)
			continue
		}
		if _, err := fmt.Sscanf(n, "seg-%016x-%08x.jrnl", &g, &q); err == nil && n == segName(g, q) {
			segsByGen[g] = append(segsByGen[g], q)
			s.maxGen = max(s.maxGen, g)
		}
	}
	sort.Slice(fullGens, func(i, j int) bool { return fullGens[i] > fullGens[j] })
	for _, g := range fullGens {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, fullName(g)))
		if err != nil {
			continue
		}
		payload, err := parseFrame(magicFull, g, 0, data)
		if err != nil {
			continue // corrupt full: fall back to the previous generation
		}
		full = append([]byte(nil), payload...)
		seqs := segsByGen[g]
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		last := uint32(0)
		for _, q := range seqs {
			if q != last+1 {
				break // gap: everything past it is unreachable
			}
			data, err := s.fs.ReadFile(filepath.Join(s.dir, segName(g, q)))
			if err != nil {
				break
			}
			payload, err := parseFrame(magicSeg, g, q, data)
			if err != nil {
				break // truncated/corrupt tail: stop here, keep the prefix
			}
			segs = append(segs, append([]byte(nil), payload...))
			last = q
		}
		return g, last, full, segs, nil
	}
	return 0, 0, nil, nil, nil
}

// Recover returns the newest durable state: the full-checkpoint payload
// and the contiguous valid journal segments after it, in order. A missing
// or wholly unrecoverable directory returns (nil, nil, nil) — a fresh
// start. Recovery tolerates a truncated or corrupt tail (the last durable
// prefix wins) and falls back to the previous generation if a full
// checkpoint itself is damaged.
func (s *Store) Recover() (full []byte, segs [][]byte, err error) {
	gen, seq, full, segs, err := s.scan()
	if err != nil {
		return nil, nil, err
	}
	if gen != 0 {
		s.gen, s.seq = gen, seq
		s.Stats.Gen.Store(gen)
	}
	return full, segs, nil
}
