package vswitch

import (
	"strconv"

	"rhhh/internal/telemetry"
)

// Telemetry for the distributed deployment. The two sides follow different
// halves of the internal/telemetry ownership model:
//
//   - DeltaReporter is single-threaded (one reporter per datapath), so its
//     ReporterStats stay plain owner-side counters; Instrument installs a
//     block of atomic cells the reporter publishes at its existing tick
//     boundary. The packet path itself is untouched.
//   - Collector is mutex-protected and scraped rarely, so its series are
//     scrape-time closures taking c.mu — including per-sender dynamic
//     series whose rendered label strings are cached per sender id.

// ReporterTelemetry is the DeltaReporter's publication block. Its cells
// are stored one by one, so each series is consistent on its own but one
// scrape may mix two publications across series.
type ReporterTelemetry struct {
	Reports      telemetry.Cell
	FullReports  telemetry.Cell
	DeltaReports telemetry.Cell
	DeltaNodes   telemetry.Cell
	FullBytes    telemetry.Cell
	DeltaBytes   telemetry.Cell
	Retransmits  telemetry.Cell
	Timeouts     telemetry.Cell
	Resyncs      telemetry.Cell
	Superseded   telemetry.Cell
	AcksOK       telemetry.Cell
	AcksStale    telemetry.Cell
	Nacks        telemetry.Cell
	AckErrors    telemetry.Cell
	SendErrors   telemetry.Cell
	InFlight     telemetry.Cell
	Epoch        telemetry.Cell
}

// Register wires the block under the rhhh_reporter_* names; labels should
// carry the sender id (e.g. `{sender="3"}`).
func (t *ReporterTelemetry) Register(r *telemetry.Registry, labels string) {
	r.Counter("rhhh_reporter_reports_total", labels, "Reports built by the switch-side delta reporter.", &t.Reports)
	r.Counter("rhhh_reporter_full_reports_total", labels, "Full state reports built.", &t.FullReports)
	r.Counter("rhhh_reporter_delta_reports_total", labels, "Delta reports built.", &t.DeltaReports)
	r.Counter("rhhh_reporter_delta_nodes_total", labels, "Lattice nodes carried by all delta reports.", &t.DeltaNodes)
	r.Counter("rhhh_reporter_full_bytes_total", labels, "Encoded bytes of full reports.", &t.FullBytes)
	r.Counter("rhhh_reporter_delta_bytes_total", labels, "Encoded bytes of delta reports.", &t.DeltaBytes)
	r.Counter("rhhh_reporter_retransmits_total", labels, "Report frames re-sent after a timeout.", &t.Retransmits)
	r.Counter("rhhh_reporter_timeouts_total", labels, "Ack timeouts fired.", &t.Timeouts)
	r.Counter("rhhh_reporter_resyncs_total", labels, "Full reports forced by a nack or exhausted delta retries.", &t.Resyncs)
	r.Counter("rhhh_reporter_superseded_total", labels, "Pending reports replaced by a newer boundary before an ack.", &t.Superseded)
	r.Counter("rhhh_reporter_acks_ok_total", labels, "Acks accepting the pending report.", &t.AcksOK)
	r.Counter("rhhh_reporter_acks_stale_total", labels, "Acks for superseded or long-gone reports.", &t.AcksStale)
	r.Counter("rhhh_reporter_nacks_total", labels, "Resync requests received from the collector.", &t.Nacks)
	r.Counter("rhhh_reporter_ack_errors_total", labels, "Undecodable or misdirected ack frames.", &t.AckErrors)
	r.Counter("rhhh_reporter_send_errors_total", labels, "Transport send failures.", &t.SendErrors)
	r.Gauge("rhhh_reporter_in_flight", labels, "Whether a report is awaiting its ack (0 or 1).", &t.InFlight)
	r.Gauge("rhhh_reporter_epoch", labels, "Collector epoch last learned from an ack.", &t.Epoch)
}

// Instrument registers the reporter's protocol telemetry with reg under the
// sender-id label; the block is republished at every protocol tick. Call it
// before feeding traffic (same goroutine as the datapath). A nil reg is a
// no-op.
func (r *DeltaReporter) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	r.tm = &ReporterTelemetry{}
	r.tm.Register(reg, senderLabels(r.sender))
	r.publishTelemetry()
}

// publishTelemetry copies the owner-side protocol counters into the block.
func (r *DeltaReporter) publishTelemetry() {
	t, s := r.tm, &r.stats
	t.Reports.Store(s.Reports)
	t.FullReports.Store(s.FullReports)
	t.DeltaReports.Store(s.DeltaReports)
	t.DeltaNodes.Store(s.DeltaNodes)
	t.FullBytes.Store(s.FullBytes)
	t.DeltaBytes.Store(s.DeltaBytes)
	t.Retransmits.Store(s.Retransmits)
	t.Timeouts.Store(s.Timeouts)
	t.Resyncs.Store(s.Resyncs)
	t.Superseded.Store(s.Superseded)
	t.AcksOK.Store(s.AcksOK)
	t.AcksStale.Store(s.AcksStale)
	t.Nacks.Store(s.Nacks)
	t.AckErrors.Store(s.AckErrors)
	t.SendErrors.Store(s.SendErrors)
	var inFlight uint64
	if r.inFlight {
		inFlight = 1
	}
	t.InFlight.Store(inFlight)
	t.Epoch.Store(uint64(r.epoch))
}

// senderLabels renders the per-sender label set (allocates; setup/scrape
// paths only).
func senderLabels(id uint16) string {
	return `{sender="` + strconv.FormatUint(uint64(id), 10) + `"}`
}

// Instrument registers the collector's protocol telemetry with reg: the
// global counters as scrape-time closures over c.mu, plus per-sender dynamic
// series (replica weight, sender-reported drops, stale reports, refused
// deltas, staleness) labeled by sender id. A nil reg is a no-op.
func (c *Collector) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	stat := func(pick func(*CollectorStats) uint64) func() uint64 {
		return func() uint64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return pick(&c.stats)
		}
	}
	reg.CounterFunc("rhhh_collector_messages_total", "", "Datagrams handed to the collector.",
		stat(func(s *CollectorStats) uint64 { return s.Messages }))
	reg.CounterFunc("rhhh_collector_sample_batches_total", "", "Applied sample batches.",
		stat(func(s *CollectorStats) uint64 { return s.SampleBatches }))
	reg.CounterFunc("rhhh_collector_full_reports_total", "", "Applied full state reports.",
		stat(func(s *CollectorStats) uint64 { return s.FullReports }))
	reg.CounterFunc("rhhh_collector_delta_reports_total", "", "Applied delta reports.",
		stat(func(s *CollectorStats) uint64 { return s.DeltaReports }))
	reg.CounterFunc("rhhh_collector_stale_reports_total", "", "Already-applied reports acked without reapplying.",
		stat(func(s *CollectorStats) uint64 { return s.StaleReports }))
	reg.CounterFunc("rhhh_collector_resync_requests_total", "", "Nacks asking a sender for a full report.",
		stat(func(s *CollectorStats) uint64 { return s.ResyncRequests }))
	reg.CounterFunc("rhhh_collector_decode_errors_total", "", "Malformed datagrams rejected.",
		stat(func(s *CollectorStats) uint64 { return s.DecodeErrors }))
	reg.CounterFunc("rhhh_collector_failovers_total", "", "Checkpoint restores into this collector.",
		stat(func(s *CollectorStats) uint64 { return s.Failovers }))
	reg.GaugeFunc("rhhh_collector_epoch", "", "Collector incarnation number.", func() float64 {
		return float64(c.Epoch())
	})
	reg.GaugeFunc("rhhh_collector_senders", "", "Reporting switches with a replica.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.senders))
	})
	reg.GaugeFunc("rhhh_collector_packets_total", "", "Stream packets behind the collector's state.", func() float64 {
		return float64(c.Packets())
	})
	sender := func(pick func(*senderState) uint64) func(*telemetry.Appender) {
		return func(a *telemetry.Appender) {
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, id := range c.senderOrderLocked() {
				a.U64(c.senderLabelsLocked(id), pick(c.senders[id]))
			}
		}
	}
	reg.CollectGauge("rhhh_collector_sender_packets", "Stream packets behind the sender's replica.",
		sender(func(st *senderState) uint64 { return st.snap.Packets }))
	reg.CollectCounter("rhhh_collector_sender_dropped_total", "Sender-reported dropped or superseded reports.",
		sender(func(st *senderState) uint64 { return st.dropped }))
	reg.CollectCounter("rhhh_collector_sender_stale_total", "Stale reports from this sender.",
		sender(func(st *senderState) uint64 { return st.stale }))
	reg.CollectCounter("rhhh_collector_sender_gaps_total", "Deltas refused pending resync.",
		sender(func(st *senderState) uint64 { return st.gaps }))
	reg.CollectGauge("rhhh_collector_sender_staleness_messages", "Messages processed since the sender's replica last advanced.",
		sender(func(st *senderState) uint64 { return c.stats.Messages - st.lastMsg }))
}

// senderOrderLocked returns the sender ids in ascending order, reusing the
// scrape scratch; c.mu must be held.
func (c *Collector) senderOrderLocked() []uint16 {
	c.tmOrder = c.tmOrder[:0]
	for id := range c.senders {
		c.tmOrder = append(c.tmOrder, id)
	}
	for i := 1; i < len(c.tmOrder); i++ { // tiny n: insertion sort, no closure alloc
		for j := i; j > 0 && c.tmOrder[j] < c.tmOrder[j-1]; j-- {
			c.tmOrder[j], c.tmOrder[j-1] = c.tmOrder[j-1], c.tmOrder[j]
		}
	}
	return c.tmOrder
}

// senderLabelsLocked returns the cached rendered label set for a sender id,
// building it on first use; c.mu must be held.
func (c *Collector) senderLabelsLocked(id uint16) string {
	if c.tmLabels == nil {
		c.tmLabels = make(map[uint16]string)
	}
	l, ok := c.tmLabels[id]
	if !ok {
		l = senderLabels(id)
		c.tmLabels[id] = l
	}
	return l
}
