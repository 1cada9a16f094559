package spacesaving

// Differential tests for the batch kernel's eviction-heavy regimes. The
// kernel differentials in ref_test.go exercise eviction through random
// schedules; the tests here force the shapes that stress the apply phase's
// plan replay: maximal runs of planned misses against one min bucket,
// cascades that drain several count levels in a single chunk, runs broken by
// hits and by weight changes, and chunks that repeat unmonitored keys (the
// planned misses that must look themselves up again after an admission).

import (
	"math/rand/v2"
	"testing"
)

// evictRegimes are the five capacity/skew regimes of the kernel
// differentials, re-used with adversarial eviction-heavy schedules.
var evictRegimes = []struct {
	name     string
	capacity int
	keyRange uint64
}{
	{"HeavyChurn", 64, 1 << 12},
	{"SteadyState", 256, 300},
	{"BelowCapacity", 1024, 200},
	{"CapacityOne", 1, 1 << 8},
	{"SkewedZipf", 128, 1 << 16},
}

// TestBatchedEvictionFreshRuns drives chunks made entirely of never-seen
// keys — every chunk entry is a planned miss, so at capacity the whole chunk
// evicts, draining the min bucket level by level — and compares full state
// against the sequential reference after every chunk.
func TestBatchedEvictionFreshRuns(t *testing.T) {
	for _, tc := range evictRegimes {
		t.Run(tc.name, func(t *testing.T) {
			s := New[uint64](tc.capacity)
			ref := newRefSummary[uint64](tc.capacity)
			next := uint64(1) << 32 // disjoint from every other draw
			for round := 0; round < 4; round++ {
				for _, n := range chunkSizes {
					keys := make([]uint64, n)
					for i := range keys {
						keys[i] = next
						next++
					}
					applyBatch(s, keys, nil)
					incrementBatchRef(ref, keys)
					mustMatchRef(t, tc.name, s, ref)
				}
			}
		})
	}
}

// TestBatchedEvictionSameBucket pins the eviction worst case: a summary
// whose counters all share one min bucket (equal counts), hit with repeated
// all-miss chunks — each chunk empties and re-forms the min bucket several
// times over, exercising the level cascade and the min-bucket removal.
func TestBatchedEvictionSameBucket(t *testing.T) {
	const capacity = 48
	s := New[uint64](capacity)
	ref := newRefSummary[uint64](capacity)
	seed := make([]uint64, capacity)
	for i := range seed {
		seed[i] = uint64(i)
	}
	applyBatch(s, seed, nil)
	incrementBatchRef(ref, seed)
	mustMatchRef(t, "seed", s, ref)

	next := uint64(1) << 40
	for round := 0; round < 32; round++ {
		// 3×capacity fresh keys per chunk: the min level (and each level it
		// cascades into) is evicted wholesale multiple times per chunk.
		keys := make([]uint64, 3*capacity)
		for i := range keys {
			keys[i] = next
			next++
		}
		applyBatch(s, keys, nil)
		incrementBatchRef(ref, keys)
		mustMatchRef(t, "sameBucket", s, ref)
	}
}

// TestBatchedEvictionBrokenRuns interleaves planned hits into eviction-heavy
// chunks so miss runs start and stop mid-chunk, and the hits bump keys whose
// buckets the surrounding evictions are mutating (including keys the same
// chunk just admitted by eviction — stale planned hits).
func TestBatchedEvictionBrokenRuns(t *testing.T) {
	const capacity = 32
	rng := rand.New(rand.NewPCG(21, 43))
	s := New[uint64](capacity)
	ref := newRefSummary[uint64](capacity)
	hot := make([]uint64, capacity)
	for i := range hot {
		hot[i] = uint64(i)
	}
	applyBatch(s, hot, nil)
	incrementBatchRef(ref, hot)

	next := uint64(1) << 48
	for round := 0; round < 64; round++ {
		n := 60 + rng.IntN(10)
		keys := make([]uint64, n)
		for i := range keys {
			switch rng.IntN(3) {
			case 0: // monitored hit, breaks the current miss run
				keys[i] = hot[rng.IntN(len(hot))]
			case 1: // hit on a key admitted earlier in this same chunk
				if i > 0 {
					keys[i] = keys[rng.IntN(i)]
				} else {
					keys[i] = hot[0]
				}
			default: // fresh miss, extends the run
				keys[i] = next
				next++
			}
		}
		applyBatch(s, keys, nil)
		incrementBatchRef(ref, keys)
		mustMatchRef(t, "brokenRuns", s, ref)
	}
}

// TestBatchedEvictionWeighted drives the weighted batch path through
// equal-weight runs, weight changes mid-run, zero weights inside runs, and
// large weights that cascade across count levels.
func TestBatchedEvictionWeighted(t *testing.T) {
	const capacity = 40
	rng := rand.New(rand.NewPCG(5, 17))
	s := New[uint64](capacity)
	ref := newRefSummary[uint64](capacity)
	next := uint64(1) << 52
	for round := 0; round < 48; round++ {
		n := 60 + rng.IntN(10)
		keys := make([]uint64, n)
		ws := make([]uint64, n)
		runW := uint64(1 + rng.IntN(5))
		for i := range keys {
			keys[i] = next
			next++
			switch rng.IntN(10) {
			case 0:
				ws[i] = 0
			case 1:
				ws[i] = 1 + rng.Uint64N(5_000)
			case 2:
				runW = uint64(1 + rng.IntN(5)) // new equal-weight run
				ws[i] = runW
			default:
				ws[i] = runW
			}
			if rng.IntN(4) == 0 { // some monitored / duplicate hits
				keys[i] = rng.Uint64N(uint64(capacity))
			}
		}
		applyBatch(s, keys, ws)
		incrementBatchWeightedRef(ref, keys, ws)
		mustMatchRef(t, "weighted", s, ref)
	}
}

// TestBatchedEvictionDuplicateMisses repeats unmonitored keys within one
// chunk: after the first admission every planned miss looks itself up again
// before inserting, and the result must stay bit-identical.
func TestBatchedEvictionDuplicateMisses(t *testing.T) {
	const capacity = 24
	rng := rand.New(rand.NewPCG(3, 99))
	s := New[uint64](capacity)
	ref := newRefSummary[uint64](capacity)
	next := uint64(1) << 56
	for round := 0; round < 64; round++ {
		n := 60 + rng.IntN(10)
		keys := make([]uint64, n)
		for i := range keys {
			if i > 0 && rng.IntN(3) == 0 {
				keys[i] = keys[rng.IntN(i)] // duplicate an earlier chunk key
			} else {
				keys[i] = next
				next++
			}
		}
		applyBatch(s, keys, nil)
		incrementBatchRef(ref, keys)
		mustMatchRef(t, "dupMisses", s, ref)
	}
}
