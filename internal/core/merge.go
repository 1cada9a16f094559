package core

// MergeOutput answers an HHH query over the union of several
// equally-configured engines — the multi-queue deployment: modern NICs
// spread flows across receive queues, one engine per queue/core updates
// lock-free, and queries merge at read time. Engines must share the domain,
// V, R and the Space Saving (stream-summary) backend; the merged per-node
// summaries preserve the Definition 4 bounds (see spacesaving.Merger), so
// Theorem 6.17 applies to the union stream with N = ΣNi.
//
// MergeOutput snapshots every engine and extracts from the snapshots' union
// (Extractor.ExtractSnapshots); callers that query repeatedly should hold
// their own EngineSnapshot buffers and Extractor instead (as the sharded
// aggregator does) to avoid the per-call allocations.
//
// Like the other query entry points, treat the returned slice as read-only
// and valid only until the next query involving the same engines (with a
// single engine it is that engine's reusable Output buffer); copy it to
// retain results.
func MergeOutput[K comparable](theta float64, engines ...*Engine[K]) []Result[K] {
	if !(theta > 0 && theta <= 1) {
		panic("core: theta must be in (0, 1]")
	}
	if len(engines) == 0 {
		return nil
	}
	first := engines[0]
	for _, e := range engines[1:] {
		if e.dom != first.dom {
			panic("core: MergeOutput requires a shared domain")
		}
		if e.v != first.v || e.r != first.r {
			panic("core: MergeOutput requires equal V and R")
		}
	}
	if len(engines) == 1 {
		return first.Output(theta)
	}
	snaps := make([]*EngineSnapshot[K], len(engines))
	for i, e := range engines {
		snaps[i] = e.Snapshot()
	}
	return NewExtractor(first.dom).ExtractSnapshots(snaps, theta)
}
