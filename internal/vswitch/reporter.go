package vswitch

import (
	"math/rand/v2"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/trace"
)

// ReportTransport moves protocol frames between one reporting switch and the
// collector: reports up, acks down. Implementations are point-to-point (one
// per switch) and may drop, delay, duplicate or reorder in both directions —
// the reporter's retransmit/resync machinery owns correctness.
type ReportTransport interface {
	// SendReport transmits one encoded report frame. The slice is only
	// valid during the call.
	SendReport(frame []byte) error
	// RecvAck copies the next pending ack frame into buf without blocking,
	// reporting whether one was available. buf must hold ackMsgLen bytes.
	RecvAck(buf []byte) (int, bool)
	// Close releases the transport.
	Close() error
}

// droppedCounter is an optional ReportTransport extension: transports with
// bounded internal queues report how many frames they dropped, and the
// reporter folds that into the Dropped field of its report headers.
type droppedCounter interface {
	Dropped() uint64
}

// ReporterOptions tunes a DeltaReporter. The zero value is usable.
type ReporterOptions struct {
	// Every is the packet interval between reports (default 1<<16).
	Every uint64
	// ResyncEvery forces a full report after this many consecutive delta
	// reports, bounding how long a collector that silently lost state can
	// stay wrong. 0 disables periodic resync (deltas until nacked).
	ResyncEvery int
	// Timeout is how long an unacked report waits before retransmission
	// (default 200ms). Retries back off exponentially (×2 with ±25% jitter)
	// up to MaxBackoff (default 10×Timeout).
	Timeout    time.Duration
	MaxBackoff time.Duration
	// MaxRetries is how many retransmits a delta report gets before the
	// reporter escalates to a full report (default 5). Full reports retry
	// indefinitely — they are the recovery of last resort.
	MaxRetries int
	// Seed seeds the retransmit jitter (deterministic tests).
	Seed uint64
	// Boot overrides the sender incarnation id (default: random non-zero).
	// Two runs of the same process must not share a boot id, or the
	// collector will mistake the restart's reports for stale duplicates.
	Boot uint32
	// Now overrides the clock (deterministic tests).
	Now func() time.Time
}

// ReporterStats counts protocol activity on the switch side.
type ReporterStats struct {
	// Reports counts distinct reports built (FullReports + DeltaReports);
	// DeltaNodes the lattice nodes carried by all delta reports together.
	Reports      uint64
	FullReports  uint64
	DeltaReports uint64
	DeltaNodes   uint64
	// FullBytes and DeltaBytes are the encoded frame bytes by kind, the
	// inputs to the delta-savings measurement.
	FullBytes  uint64
	DeltaBytes uint64
	// Retransmits counts frames re-sent after Timeouts; Resyncs full
	// reports forced by a nack or by delta retries running out; Superseded
	// pending reports replaced by a newer boundary before being acked
	// (drop-oldest: the newer report subsumes the older).
	Retransmits uint64
	Timeouts    uint64
	Resyncs     uint64
	Superseded  uint64
	// AcksOK/AcksStale/Nacks classify received acks (stale: for a report no
	// longer pending); AckErrors counts undecodable ack frames.
	AcksOK    uint64
	AcksStale uint64
	Nacks     uint64
	AckErrors uint64
	// SendErrors counts transport send failures (the frame stays pending
	// and retries on the usual schedule).
	SendErrors uint64
}

// DeltaReporter is the fault-tolerant switch-side reporter: it runs a full
// local RHHH engine (like EngineHook) and ships generation-deltas —
// only the lattice nodes whose mutation generation moved since the last
// *acked* report, entry-coded against that acked base — falling back to full
// state reports on startup, on collector request (nack), after too many
// unacked retransmits, and every ResyncEvery reports. Reports carry sequence
// numbers and survive loss, duplication, reorder, corruption, sender
// restarts and collector fail-over; see protocol.go for the acceptance
// rules.
//
// Not safe for concurrent use (one reporter per datapath, like every hook).
type DeltaReporter struct {
	*EngineHook
	eng    *core.Engine[uint64]
	tr     ReportTransport
	trDrop droppedCounter // tr's optional dropped-frame counter
	sender uint16
	opts   ReporterOptions
	rng    *fastrand.Source
	now    func() time.Time

	// Protocol state. scratch is the pending report's capture (stable while
	// in flight: a new boundary supersedes the pending report first);
	// acked/ackedGens are the last acked capture and its per-node
	// generations, the base the next delta is encoded against.
	seq       uint32
	epoch     uint32 // collector epoch learned from acks; 0 = unknown
	boot      uint32
	ackedSeq  uint32
	haveAcked bool
	scratch   core.EngineSnapshot[uint64]
	acked     core.EngineSnapshot[uint64]
	ackedGens []uint64
	codec     core.DeltaCodec[uint64]

	pending     []byte // encoded frame awaiting ack (retransmit buffer)
	pendingSeq  uint32
	pendingFull bool
	inFlight    bool
	deadline    time.Time
	backoff     time.Duration
	retries     int
	forceFull   bool
	sinceFull   int

	next    uint64 // next report boundary (engine packet count)
	pollCtr uint32
	ackBuf  [ackMsgLen]byte
	stats   ReporterStats
	tm      *ReporterTelemetry // nil when uninstrumented; published per tick
	sendErr error
}

// NewDeltaReporter wraps an engine in a datapath hook reporting to tr as
// sender. See ReporterOptions for tuning; the zero options work.
func NewDeltaReporter(eng *core.Engine[uint64], tr ReportTransport, sender uint16, opts ReporterOptions) *DeltaReporter {
	if opts.Every == 0 {
		opts.Every = 1 << 16
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 200 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 10 * opts.Timeout
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 5
	}
	for opts.Boot == 0 {
		opts.Boot = rand.Uint32()
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	dc, _ := tr.(droppedCounter)
	return &DeltaReporter{
		EngineHook: NewEngineHook(eng),
		eng:        eng,
		tr:         tr,
		trDrop:     dc,
		sender:     sender,
		opts:       opts,
		rng:        fastrand.New(opts.Seed ^ uint64(opts.Boot)),
		now:        now,
		boot:       opts.Boot,
		next:       opts.Every,
	}
}

// OnPacket feeds the engine, reports at boundaries, and polls the ack/retry
// machinery while a report is in flight.
func (r *DeltaReporter) OnPacket(p trace.Packet) {
	r.EngineHook.OnPacket(p)
	r.maybeTick()
}

// OnBatch is OnPacket over the engine's batched update path.
func (r *DeltaReporter) OnBatch(ps []trace.Packet) {
	r.EngineHook.OnBatch(ps)
	r.maybeTick()
}

func (r *DeltaReporter) maybeTick() {
	if r.eng.N() >= r.next {
		r.tick(false)
		return
	}
	if r.inFlight {
		// Between boundaries, poll the clock only every few hundred packets
		// — the retransmit path needs timeliness, not per-packet precision.
		if r.pollCtr++; r.pollCtr >= 256 {
			r.pollCtr = 0
			r.tick(false)
		}
	}
}

// Poll drives the ack/timeout/retransmit machinery without feeding packets —
// the idle-stream complement to OnPacket, used while waiting for quiescence.
func (r *DeltaReporter) Poll() { r.tick(false) }

// tick advances the state machine: drain acks, fire the retransmit timer,
// and build a report if a boundary was crossed (or force is set).
func (r *DeltaReporter) tick(force bool) {
	r.drainAcks()
	if r.inFlight {
		if now := r.now(); !now.Before(r.deadline) {
			r.onTimeout(now)
		}
	}
	if r.eng.N() >= r.next || force {
		r.buildReport(force)
		for r.next <= r.eng.N() {
			r.next += r.opts.Every
		}
	}
	if r.tm != nil {
		r.publishTelemetry()
	}
}

// drainAcks consumes every pending ack from the transport.
func (r *DeltaReporter) drainAcks() {
	for {
		n, ok := r.tr.RecvAck(r.ackBuf[:])
		if !ok {
			return
		}
		a, err := DecodeAckMsg(r.ackBuf[:n])
		if err != nil || a.Sender != r.sender {
			r.stats.AckErrors++
			continue
		}
		// Epochs only grow (each fail-over bumps them), so max() ignores
		// reordered acks from before a fail-over.
		r.epoch = max(r.epoch, a.Epoch)
		if !r.inFlight || a.Seq != r.pendingSeq {
			// An ack for a superseded or long-gone report. If it reports
			// OK, the collector advanced past our acked base and pending
			// deltas will be nacked — get ahead of it with a full report.
			r.stats.AcksStale++
			if !a.Resync && a.Seq > r.ackedSeq {
				r.forceFull = true
			}
			continue
		}
		if a.Resync {
			// The collector cannot apply our deltas (fresh start, gap,
			// fail-over, restart): escalate to a full report immediately.
			r.stats.Nacks++
			r.stats.Resyncs++
			r.inFlight = false
			r.forceFull = true
			r.buildReport(true)
			continue
		}
		r.stats.AcksOK++
		r.inFlight = false
		r.retries = 0
		if r.pendingFull {
			r.sinceFull = 0
		}
		// Acking the newest report means the collector holds exactly our
		// pending capture — any resync hint from older acks is moot.
		r.forceFull = false
		// The pending capture is now the shared base: keep its bytes and
		// the generations that identify its nodes in the live engine.
		r.acked.CopyFrom(&r.scratch)
		r.ackedGens = r.scratch.NodeGens(r.ackedGens)
		r.ackedSeq = r.pendingSeq
		r.haveAcked = true
	}
}

// onTimeout retransmits the pending frame with exponential backoff; a delta
// that exhausts MaxRetries escalates to a full report.
func (r *DeltaReporter) onTimeout(now time.Time) {
	r.stats.Timeouts++
	if !r.pendingFull && r.retries >= r.opts.MaxRetries {
		r.stats.Resyncs++
		r.inFlight = false
		r.forceFull = true
		r.buildReport(true)
		return
	}
	r.retries++
	r.stats.Retransmits++
	if err := r.tr.SendReport(r.pending); err != nil {
		r.stats.SendErrors++
		r.noteErr(err)
	}
	r.backoff = min(2*r.backoff, r.opts.MaxBackoff)
	r.deadline = now.Add(r.jitter(r.backoff))
}

// jitter spreads a backoff over ±25% so retransmits from many switches do
// not synchronize.
func (r *DeltaReporter) jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.75 + 0.5*r.rng.Float64()))
}

// buildReport captures the engine and sends a report: a delta against the
// acked base when one exists (and nothing forces a resync), a full state
// report otherwise. A boundary that finds an unacked report still within its
// timeout is skipped (the next report covers it — captures are cumulative);
// a forced build supersedes the pending report instead, the new capture
// subsuming it (generations only move forward, so the new delta's node set
// is a superset encoded against the same acked base).
func (r *DeltaReporter) buildReport(force bool) {
	if r.haveAcked && !r.forceFull &&
		r.eng.N() == r.acked.Packets && r.eng.Weight() == r.acked.Weight {
		// Everything the engine absorbed is already acked (a Flush on a
		// quiet stream): nothing to report, and any pending report covers
		// an identical capture.
		return
	}
	if r.inFlight {
		if !force && r.now().Before(r.deadline) {
			// A report is in flight and has not timed out: skip this boundary
			// instead of superseding it. Reports are cumulative captures, so
			// the next report after the ack covers this interval too — and a
			// boundary period shorter than the ack round trip degrades into
			// fewer, larger deltas instead of a supersede-and-resync storm.
			return
		}
		r.stats.Superseded++
		r.inFlight = false
	}
	r.eng.SnapshotInto(&r.scratch)
	full := r.forceFull || !r.haveAcked || r.epoch == 0 ||
		(r.opts.ResyncEvery > 0 && r.sinceFull >= r.opts.ResyncEvery)
	r.seq++
	h := ReportHeader{
		Sender: r.sender,
		Epoch:  r.epoch,
		Boot:   r.boot,
		Seq:    r.seq,
		Full:   full,
	}
	h.Dropped = r.stats.Superseded
	if r.trDrop != nil {
		h.Dropped += r.trDrop.Dropped()
	}
	var err error
	if full {
		r.pending, err = EncodeStateMsg(r.pending, &h, &r.scratch)
		if err == nil {
			r.stats.FullReports++
			r.stats.FullBytes += uint64(len(r.pending))
		}
	} else {
		h.BaseSeq = r.ackedSeq
		var nodes int
		r.pending, nodes, err = EncodeDeltaMsg(r.pending, &h, &r.codec, &r.scratch, &r.acked, r.ackedGens)
		if err == nil {
			r.stats.DeltaReports++
			r.stats.DeltaBytes += uint64(len(r.pending))
			r.stats.DeltaNodes += uint64(nodes)
		}
	}
	if err != nil {
		// Encoding failures are programming errors (shape mismatch, missing
		// codec); surface them without wedging the datapath.
		r.noteErr(err)
		r.seq--
		return
	}
	r.stats.Reports++
	r.pendingSeq = r.seq
	r.pendingFull = full
	r.inFlight = true
	r.retries = 0
	r.backoff = r.opts.Timeout
	r.deadline = r.now().Add(r.opts.Timeout)
	if full {
		r.forceFull = false
	} else {
		r.sinceFull++
	}
	if err := r.tr.SendReport(r.pending); err != nil {
		r.stats.SendErrors++
		r.noteErr(err)
	}
}

// Flush sends a report covering all absorbed traffic (unless the acked state
// already does) and reports the first error encountered. It does not wait
// for the ack; pair it with WaitSynced for a quiescence barrier.
func (r *DeltaReporter) Flush() error {
	r.tick(true)
	return r.sendErr
}

// Synced reports whether every packet the engine absorbed is covered by an
// acked report — the quiescent all-delivered state.
func (r *DeltaReporter) Synced() bool {
	return r.haveAcked && !r.inFlight &&
		r.eng.N() == r.acked.Packets && r.eng.Weight() == r.acked.Weight
}

// WaitSynced polls the protocol until Synced or the deadline; it reports
// whether sync was reached. Use with real transports (the fault-injection
// harness drives Poll and its own clock instead).
func (r *DeltaReporter) WaitSynced(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for !r.Synced() {
		if time.Now().After(deadline) {
			return false
		}
		r.tick(r.eng.N() > r.acked.Packets && !r.inFlight)
		time.Sleep(time.Millisecond)
	}
	return true
}

// Stats returns a copy of the reporter's protocol counters.
func (r *DeltaReporter) Stats() ReporterStats { return r.stats }

// Err returns the first transport or encoding error encountered.
func (r *DeltaReporter) Err() error { return r.sendErr }

func (r *DeltaReporter) noteErr(err error) {
	if r.sendErr == nil {
		r.sendErr = err
	}
}
