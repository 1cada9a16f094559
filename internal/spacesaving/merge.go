package spacesaving

// Merge combines two Space Saving summaries over disjoint sub-streams into
// one summary over their union, in the style of mergeable summaries
// (Agarwal et al., PODS 2012). For every key the merged upper bound is the
// sum of the two upper bounds (using MinCount for a summary that does not
// monitor the key) and the merged lower bound is the sum of the lower
// bounds, so the Definition 4 contract is preserved:
//
//	fa(k)+fb(k) ≤ upper(k),   lower(k) ≤ fa(k)+fb(k),
//	upper(k)−lower(k) ≤ εa·Na + εb·Nb.
//
// Only the `capacity` keys with the largest upper bounds are retained; a
// dropped key's frequency is bounded by the merged MinCount, exactly as in
// a freshly built summary.
//
// Merge materializes a standalone Summary and allocates accordingly; the
// snapshot paths (core.SnapshotMerger, the query's lazily merged nodes)
// instead reuse a Merger over Snapshots, which performs the same
// combination with no steady-state allocation.
func Merge[K comparable](a, b *Summary[K], capacity int) *Summary[K] {
	if capacity < 1 {
		panic("spacesaving: capacity must be >= 1")
	}
	var m Merger[K]
	m.Reset()
	m.Add(a.Snapshot())
	m.Add(b.Snapshot())
	var sn Snapshot[K]
	m.MergeInto(&sn, capacity)
	out := New[K](capacity)
	out.LoadSnapshot(&sn)
	return out
}
