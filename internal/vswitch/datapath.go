package vswitch

import (
	"rhhh/internal/core"
	"rhhh/internal/trace"
)

// Hook is the measurement integration point: it sees every packet the
// datapath processes (the paper's dataplane integration).
type Hook interface {
	OnPacket(p trace.Packet)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(p trace.Packet)

// OnPacket calls f(p).
func (f HookFunc) OnPacket(p trace.Packet) { f(p) }

// BatchHook is an optional Hook extension: a hook that consumes a whole
// batch at once. Datapath.ProcessBatch delivers one OnBatch call instead of
// per-packet OnPacket calls, letting measurement amortize its work (RHHH's
// batched update skips non-sampled packets in bulk).
type BatchHook interface {
	Hook
	OnBatch(ps []trace.Packet)
}

// NopHook is the unmodified-switch baseline (Figure 6's "OVS" bar).
type NopHook struct{}

// OnPacket does nothing.
func (NopHook) OnPacket(trace.Packet) {}

// Stats counts datapath events.
type Stats struct {
	Received  uint64
	Forwarded uint64
	Dropped   uint64
	EMCHits   uint64
	TableHits uint64
	NoMatch   uint64
}

// Datapath is the packet pipeline: hook → EMC → flow table → action. It is
// single-threaded by design, like one OVS PMD thread; run one Datapath per
// core and shard ports across them for parallelism.
type Datapath struct {
	Table *FlowTable
	Cache *EMC
	hook  Hook
	batch BatchHook // non-nil when hook also implements BatchHook
	stats Stats
	// hashes holds ProcessBatch's flow hashes, reused across bursts.
	hashes   []uint32
	warmSink uint32 // defeats dead-load elimination of the warm-up loads
	// DefaultAction applies when no rule matches (OVS would punt to the
	// controller; we drop by default).
	DefaultAction Action
}

// NewDatapath assembles a pipeline. hook may be nil for an unmodified
// switch.
func NewDatapath(table *FlowTable, cache *EMC, hook Hook) *Datapath {
	d := &Datapath{
		Table:         table,
		Cache:         cache,
		DefaultAction: Action{Drop: true},
	}
	d.SetHook(hook)
	return d
}

// SetHook swaps the measurement hook (e.g. between experiment runs).
func (d *Datapath) SetHook(h Hook) {
	if h == nil {
		h = NopHook{}
	}
	d.hook = h
	d.batch, _ = h.(BatchHook)
}

// Stats returns a copy of the counters.
func (d *Datapath) Stats() Stats { return d.stats }

// Process runs one packet through the pipeline and returns the action taken.
func (d *Datapath) Process(p trace.Packet) Action {
	d.stats.Received++
	d.hook.OnPacket(p)
	return d.forward(&p, flowHash(p.Flow(), d.Cache.key))
}

// forward runs the pipeline stages after the measurement hook for a packet
// whose five-tuple hashes to h: the hash serves the EMC lookup and a miss's
// insert.
func (d *Datapath) forward(p *trace.Packet, h uint32) Action {
	// Build the five-tuple in place, field by field. p.Flow() is staged in
	// a stack temporary and copied out in 16-byte moves; each spans two
	// 8-byte stores still in the store buffer, which cannot be forwarded to
	// it, so the copy stalls.
	var ft trace.FiveTuple
	ft.Src, ft.Dst = p.SrcIP, p.DstIP
	ft.SrcPort, ft.DstPort, ft.Proto = p.SrcPort, p.DstPort, p.Proto
	var a Action
	if e := d.Cache.find(&ft, h); e != nil {
		d.stats.EMCHits++
		a = e.action
	} else {
		var ok bool
		a, ok = d.Table.Lookup(p)
		if ok {
			d.stats.TableHits++
		} else {
			d.stats.NoMatch++
			a = d.DefaultAction
		}
		d.Cache.add(&ft, h, a)
	}
	if a.Drop {
		d.stats.Dropped++
	} else {
		d.stats.Forwarded++
	}
	return a
}

// ProcessBatch runs a batch through the pipeline (the DPDK-style unit of
// work) and returns how many packets were forwarded. It first hashes every
// packet's five-tuple and loads both of its EMC candidates, so the batch's
// cache misses overlap one another and the hook's work instead of stalling
// each packet's lookup. Then the hook sees the whole batch (one OnBatch
// call for a BatchHook, else OnPacket per packet). Then each packet is
// forwarded in order against the live cache, exactly as Process would.
func (d *Datapath) ProcessBatch(batch []trace.Packet) int {
	c := d.Cache
	if cap(d.hashes) < len(batch) {
		d.hashes = make([]uint32, len(batch))
	}
	hs := d.hashes[:len(batch)]
	var warm uint32
	for i := range batch {
		h := flowHash(batch[i].Flow(), c.key)
		hs[i] = h
		warm += c.entries[h&c.mask].hash + c.entries[h>>c.shift&c.mask].hash
	}
	d.warmSink += warm
	if d.batch != nil {
		d.batch.OnBatch(batch)
	} else {
		for _, p := range batch {
			d.hook.OnPacket(p)
		}
	}
	fwd := 0
	for i := range batch {
		d.stats.Received++
		if a := d.forward(&batch[i], hs[i]); !a.Drop {
			fwd++
		}
	}
	return fwd
}

// EngineHook feeds the datapath's packets to a co-located RHHH engine over
// the two-dimensional IPv4 domain — the paper's dataplane integration.
// Under ProcessBatch it uses the engine's batched update, which skips runs
// of non-sampled packets in bulk when V > H and applies the batch's samples
// through the engine's pipelined node-grouped kernel. In byte-count mode
// (NewEngineHookBytes) every update carries the packet's wire length, so the
// reported heavy hitters rank prefixes by traffic volume instead of packet
// count.
type EngineHook struct {
	eng   *core.Engine[uint64]
	buf   []uint64
	wbuf  []uint64
	bytes bool
}

// NewEngineHook wraps an engine in a (batch-capable) datapath hook counting
// packets.
func NewEngineHook(eng *core.Engine[uint64]) *EngineHook {
	return &EngineHook{eng: eng, buf: make([]uint64, 0, 256)}
}

// NewEngineHookBytes wraps an engine in a (batch-capable) datapath hook
// counting bytes: each packet contributes its wire length as update weight,
// through the engine's weighted batch path under ProcessBatch.
func NewEngineHookBytes(eng *core.Engine[uint64]) *EngineHook {
	return &EngineHook{eng: eng, buf: make([]uint64, 0, 256), wbuf: make([]uint64, 0, 256), bytes: true}
}

// OnPacket feeds one packet's 2D key (and, in byte-count mode, its length)
// to the engine.
func (h *EngineHook) OnPacket(p trace.Packet) {
	if h.bytes {
		h.eng.UpdateWeighted(p.Key2(), uint64(p.Length))
		return
	}
	h.eng.Update(p.Key2())
}

// OnBatch feeds a whole batch through the engine's batched update path.
func (h *EngineHook) OnBatch(ps []trace.Packet) {
	buf := h.buf[:0]
	for _, p := range ps {
		buf = append(buf, p.Key2())
	}
	h.buf = buf
	if h.bytes {
		wbuf := h.wbuf[:0]
		for _, p := range ps {
			wbuf = append(wbuf, uint64(p.Length))
		}
		h.wbuf = wbuf
		h.eng.UpdateWeightedBatch(buf, wbuf)
		return
	}
	h.eng.UpdateBatch(buf)
}
