package core

// Test-only hooks for the sampling equivalence tests.

// ForcePerDrawSampling disables geometric skip sampling, forcing the
// historical one-uniform-draw-per-packet path even when V > H. Used to
// compare the two samplers' node-hit distributions.
func (e *Engine[K]) ForcePerDrawSampling() { e.useSkip = false }

// NodeUpdates returns the number of updates node's instance has absorbed.
func (e *Engine[K]) NodeUpdates(node int) uint64 { return e.inst[node].Updates() }

// UsesConcreteBackend reports whether the update path calls the concrete
// Space Saving summaries without interface dispatch.
func (e *Engine[K]) UsesConcreteBackend() bool { return e.ss != nil }

// ForceKernelApply disables the small-state direct apply so tests can pin
// the windowed resolve/apply kernel on lattices whose state would otherwise
// be applied directly.
func (e *Engine[K]) ForceKernelApply() { e.directApply = false }

// UsesDirectApply reports whether batches bypass the two-phase kernel.
func (e *Engine[K]) UsesDirectApply() bool { return e.directApply }

// UsesCHKBackend reports whether the update path calls the concrete CHK
// sketches without interface dispatch.
func (e *Engine[K]) UsesCHKBackend() bool { return e.chk != nil }

// Current returns the slot of the ring's latest publication, for tests that
// act as its producer (readers go through Pin).
func (r *PubRing[K]) Current() *PubSlot[K] { return r.prev }

// Gen exposes the snapshot's mutation generation to the publication and
// merger-skip tests.
func (es *EngineSnapshot[K]) Gen() uint64 { return es.gen }

// UnionPaths returns how many node scans over several inputs were answered
// from the head alone, and how many merged the node because an input Min
// reached the per-input cut, the head outgrew the capacity, or a read went
// past the head.
func (ex *Extractor[K]) UnionPaths() (head, minFallback, capFallback, readFallback uint64) {
	p := ex.union.paths
	return p[pathHead], p[pathMinFallback], p[pathCapFallback], p[pathReadFallback]
}

// MergedBuffers returns how many merged-node buffers the extractor holds.
func (ex *Extractor[K]) MergedBuffers() int { return len(ex.union.pool) }
