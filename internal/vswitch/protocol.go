package vswitch

import (
	"errors"
	"fmt"
	"slices"

	"rhhh/internal/core"
)

// The collector side of the acked report protocol. Per sender the collector
// keeps a whole-state replica plus the sequencing state that keeps it
// consistent under loss, duplication, reorder, corruption and restarts:
//
//   - A delta report is applied iff it targets this collector incarnation
//     (epoch), comes from the sender incarnation we know (boot), advances the
//     sequence (seq > lastSeq), and was encoded against exactly the state we
//     hold (baseSeq == lastSeq). Anything already applied is acked again
//     without reapplying (retransmits are idempotent); anything unappliable
//     is answered with a resync request.
//   - A full report is self-contained, so it is accepted whenever it is not
//     stale (seq ≤ lastSeq from the same boot), including from unknown
//     senders, after sender restarts (boot change), and across collector
//     fail-overs. Its ack teaches the sender the collector's current epoch.
//
// The invariant the delta rules preserve: an applied sender replica is
// bit-identical to the snapshot the sender captured for the acked seq —
// nodes absent from a delta are bit-identical to the acked base by the
// generation check, nodes present decode to the capture exactly.

// senderState is one reporting switch's replica and protocol state.
type senderState struct {
	snap    *core.EngineSnapshot[uint64]
	boot    uint32 // sender incarnation the replica belongs to
	lastSeq uint32 // newest applied report in that incarnation
	lastMsg uint64 // stats.Messages when the replica last advanced
	fulls   uint64
	deltas  uint64
	stale   uint64
	gaps    uint64 // deltas refused pending resync
	dropped uint64 // sender-reported dropped/superseded reports
}

// CollectorStats counts protocol activity on the collector.
type CollectorStats struct {
	// Messages is every datagram handed to HandleMessage.
	Messages uint64
	// SampleBatches, FullReports and DeltaReports count applied messages by
	// kind ('R' batches, 'S' full state, 'D' deltas).
	SampleBatches uint64
	FullReports   uint64
	DeltaReports  uint64
	// StaleReports were already-applied reports (duplicates, retransmits
	// after a lost ack, reordered arrivals) acked without reapplying.
	StaleReports uint64
	// ResyncRequests counts nacks asking a sender for a full report.
	ResyncRequests uint64
	// DecodeErrors counts datagrams rejected as malformed (truncated,
	// checksum mismatch, bad magic, invalid payload).
	DecodeErrors uint64
	// Failovers counts checkpoint restores into this collector.
	Failovers uint64
}

// SenderInfo is one sender's protocol state, for operator surfaces.
type SenderInfo struct {
	Sender        uint16
	Boot, LastSeq uint32
	// Packets is the stream weight behind the sender's replica.
	Packets uint64
	// FullReports/DeltaReports/StaleReports/Gaps mirror senderState.
	FullReports, DeltaReports, StaleReports, Gaps uint64
	// Dropped is the sender-reported count of reports it dropped or
	// superseded before transmission succeeded.
	Dropped uint64
	// Staleness is how many messages the collector has processed since this
	// sender's replica last advanced — a growing value flags a silent or
	// partitioned switch.
	Staleness uint64
}

// Stats returns a copy of the collector's protocol counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DecodeErrors returns how many malformed datagrams the collector rejected.
func (c *Collector) DecodeErrors() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.DecodeErrors
}

// Epoch returns the collector's incarnation number (1 for a fresh collector;
// a checkpoint restore resumes at the checkpointed epoch plus one).
func (c *Collector) Epoch() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Senders returns per-sender protocol state in ascending sender order.
func (c *Collector) Senders() []SenderInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SenderInfo, 0, len(c.senders))
	for id, st := range c.senders {
		out = append(out, SenderInfo{
			Sender:       id,
			Boot:         st.boot,
			LastSeq:      st.lastSeq,
			Packets:      st.snap.Packets,
			FullReports:  st.fulls,
			DeltaReports: st.deltas,
			StaleReports: st.stale,
			Gaps:         st.gaps,
			Dropped:      st.dropped,
			Staleness:    c.stats.Messages - st.lastMsg,
		})
	}
	slices.SortFunc(out, func(a, b SenderInfo) int { return int(a.Sender) - int(b.Sender) })
	return out
}

// HandleMessage applies one datagram of any wire kind — 'R' sample batches,
// 'S' v2 full reports, 'D' deltas, 'F' fragments of either report — and
// returns the ack frame to send back to the sender (nil for ack-less kinds).
// Malformed input is returned as an error, never a panic, and counted in
// DecodeErrors; a valid protocol report the collector cannot apply yields a
// resync-requesting ack and no error.
func (c *Collector) HandleMessage(b []byte) (ack []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Messages++
	return c.dispatchLocked(b, false)
}

// dispatchLocked routes one frame by magic byte. reassembled marks a frame
// that came out of fragment reassembly, which must not nest.
func (c *Collector) dispatchLocked(b []byte, reassembled bool) (ack []byte, err error) {
	if len(b) < 2 {
		c.stats.DecodeErrors++
		return nil, errors.New("vswitch: short datagram")
	}
	switch {
	case b[0] == wireMagic:
		sender, total, batch, err := DecodeBatch(b)
		if err != nil {
			c.stats.DecodeErrors++
			return nil, err
		}
		c.applySamplesLocked(sender, total, batch)
		c.stats.SampleBatches++
		return nil, nil
	case b[0] == stateMsgMagic && b[1] == stateMsgVersion, b[0] == deltaMsgMagic:
		h, payload, err := DecodeReportMsg(b)
		if err != nil {
			c.stats.DecodeErrors++
			return nil, err
		}
		if h.Full {
			return c.applyFullLocked(h, payload)
		}
		return c.applyDeltaLocked(h, payload)
	case b[0] == fragMsgMagic:
		if reassembled {
			c.stats.DecodeErrors++
			return nil, errors.New("vswitch: fragment nested inside a reassembled report")
		}
		return c.handleFragLocked(b)
	default:
		c.stats.DecodeErrors++
		return nil, fmt.Errorf("vswitch: unknown datagram magic %q version %d", b[0], b[1])
	}
}

// ackLocked builds an ack frame for sender.
func (c *Collector) ackLocked(sender uint16, seq uint32, resync bool) []byte {
	if resync {
		c.stats.ResyncRequests++
	}
	return EncodeAckMsg(nil, Ack{Sender: sender, Epoch: c.epoch, Seq: seq, Resync: resync})
}

// applyFullLocked applies an 'S' v2 full-state report.
func (c *Collector) applyFullLocked(h ReportHeader, payload []byte) ([]byte, error) {
	st := c.senders[h.Sender]
	if st != nil && st.boot == h.Boot && h.Seq <= st.lastSeq {
		// Already have this report (or a newer one): a full resend after a
		// lost ack, or reordered duplicates. Ack without regressing.
		st.stale++
		st.dropped = max(st.dropped, h.Dropped)
		c.stats.StaleReports++
		return c.ackLocked(h.Sender, h.Seq, false), nil
	}
	es, rest, err := core.DecodeEngineSnapshot[uint64](payload)
	if err != nil {
		c.stats.DecodeErrors++
		return c.ackLocked(h.Sender, h.Seq, true), err
	}
	if len(rest) != 0 {
		c.stats.DecodeErrors++
		return c.ackLocked(h.Sender, h.Seq, true),
			fmt.Errorf("vswitch: %d trailing bytes after full report", len(rest))
	}
	if err := c.checkSnapshotConfig(es); err != nil {
		c.stats.DecodeErrors++
		return c.ackLocked(h.Sender, h.Seq, true), err
	}
	if st == nil {
		st = &senderState{}
		c.senders[h.Sender] = st
	}
	st.snap = es
	st.boot = h.Boot
	st.lastSeq = h.Seq
	st.lastMsg = c.stats.Messages
	st.fulls++
	st.dropped = max(st.dropped, h.Dropped)
	c.stats.FullReports++
	return c.ackLocked(h.Sender, h.Seq, false), nil
}

// applyDeltaLocked applies a 'D' delta report.
func (c *Collector) applyDeltaLocked(h ReportHeader, payload []byte) ([]byte, error) {
	st := c.senders[h.Sender]
	switch {
	case st == nil:
		// Unknown sender: nothing to patch. Ask for a full report.
		return c.ackLocked(h.Sender, h.Seq, true), nil
	case h.Epoch != c.epoch:
		// The delta targets another collector incarnation; after a fail-over
		// the replica here may lag the sender's acked base, so only a full
		// report is safe. The ack carries the current epoch.
		return c.ackLocked(h.Sender, h.Seq, true), nil
	case h.Boot != st.boot:
		// The sender restarted since our replica was built.
		st.gaps++
		return c.ackLocked(h.Sender, h.Seq, true), nil
	case h.Seq <= st.lastSeq:
		// Already applied (retransmit after a lost ack, or a duplicate).
		st.stale++
		st.dropped = max(st.dropped, h.Dropped)
		c.stats.StaleReports++
		return c.ackLocked(h.Sender, h.Seq, false), nil
	case h.BaseSeq != st.lastSeq:
		// Encoded against a base we do not hold (an unacked report was lost,
		// or ours is newer via a path we cannot see). Resync.
		st.gaps++
		return c.ackLocked(h.Sender, h.Seq, true), nil
	}
	rest, err := c.dcodec.ApplyDelta(st.snap, payload)
	if err != nil {
		c.stats.DecodeErrors++
		return c.ackLocked(h.Sender, h.Seq, true), err
	}
	if len(rest) != 0 {
		c.stats.DecodeErrors++
		return c.ackLocked(h.Sender, h.Seq, true),
			fmt.Errorf("vswitch: %d trailing bytes after delta report", len(rest))
	}
	st.lastSeq = h.Seq
	st.lastMsg = c.stats.Messages
	st.deltas++
	st.dropped = max(st.dropped, h.Dropped)
	c.stats.DeltaReports++
	return c.ackLocked(h.Sender, h.Seq, false), nil
}

// fragAssembly is one sender's in-progress report reassembly. One report per
// sender is pending at a time: a fragment announcing a different (id, total,
// count) resets the buffer — the sender retransmits whole reports, so the
// newest report wins and an abandoned one costs nothing.
type fragAssembly struct {
	id    uint32
	buf   []byte
	got   []uint64 // bitmap of received fragment indexes
	have  int
	count int
}

// handleFragLocked buffers one fragment and, when its report completes,
// dispatches the reassembled frame as if it had arrived whole. An incomplete
// report produces no ack — the sender's retransmit resends every fragment.
func (c *Collector) handleFragLocked(b []byte) ([]byte, error) {
	f, err := decodeFragMsg(b)
	if err != nil {
		c.stats.DecodeErrors++
		return nil, err
	}
	if c.frags == nil {
		c.frags = make(map[uint16]*fragAssembly)
	}
	fa := c.frags[f.sender]
	if fa == nil {
		fa = &fragAssembly{}
		c.frags[f.sender] = fa
	}
	if fa.id != f.id || len(fa.buf) != f.total || fa.count != f.count {
		fa.id = f.id
		fa.buf = make([]byte, f.total)
		fa.got = make([]uint64, (f.count+63)/64)
		fa.have = 0
		fa.count = f.count
	}
	if fa.got[f.idx/64]&(1<<(f.idx%64)) == 0 {
		fa.got[f.idx/64] |= 1 << (f.idx % 64)
		fa.have++
	}
	stride := (f.total + f.count - 1) / f.count
	copy(fa.buf[f.idx*stride:], f.chunk)
	if fa.have < fa.count {
		return nil, nil
	}
	// Complete: drop the assembly before dispatch so a report whose inner
	// checksum fails (a fragment bitflip the fragment CRC happened to miss,
	// or chunks mixed across sender restarts reusing a seq) is rebuilt from
	// scratch by the retransmit instead of retried against the same bytes.
	frame := fa.buf
	delete(c.frags, f.sender)
	return c.dispatchLocked(frame, true)
}
