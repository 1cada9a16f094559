package vswitch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/resilience"
	"rhhh/internal/spacesaving"
	"rhhh/internal/trace"
)

// This file implements the paper's distributed deployment (§5.2, Figure 8):
// "HHH measurement can be performed in a separate virtual machine. OVS
// forwards the relevant traffic to the virtual machine. When RHHH operates
// with V > H, we only forward the sampled packets and thus reduce
// overheads."
//
// The switch side (SamplerHook) performs only the d < V draw and ships
// (node, masked key) samples plus a running packet count; the collector side
// owns the HH instances and answers Output queries. Two transports are
// provided: an in-process channel (default for experiments) and real UDP
// datagrams over the loopback, exercising the same wire format.

// Sample is one sampled prefix update: the lattice node index and the masked
// two-dimensional IPv4 key.
type Sample struct {
	Node uint8
	Key  uint64
}

// Transport ships sample batches from the switch to the collector.
type Transport interface {
	// Send delivers a batch along with the sending switch's id and its
	// cumulative packet count (the collector needs N for thresholds). The
	// slice is only valid during the call.
	Send(sender uint16, totalPackets uint64, batch []Sample) error
	// Close flushes and releases the transport.
	Close() error
}

// Wire format: magic 'R', version 2, uint16 sender id, uint64 total, uint16
// count, then count × (uint8 node, uint64 key), big endian. One batch per
// datagram. The sender id lets one collector aggregate several switches
// (§5.2: "our distributed implementation is capable of analyzing data from
// multiple network devices"): totals are tracked per sender and summed.
const (
	wireMagic   = 'R'
	wireVersion = 2
	wireHeader  = 2 + 2 + 8 + 2
	wireSample  = 1 + 8
	// MaxBatch keeps a batch within a standard-MTU UDP datagram.
	MaxBatch = 128
)

// EncodeBatch serializes a batch into buf (reusing its storage when large
// enough) and returns the encoded bytes.
func EncodeBatch(buf []byte, sender uint16, total uint64, batch []Sample) []byte {
	n := wireHeader + wireSample*len(batch)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	buf[0] = wireMagic
	buf[1] = wireVersion
	binary.BigEndian.PutUint16(buf[2:4], sender)
	binary.BigEndian.PutUint64(buf[4:12], total)
	binary.BigEndian.PutUint16(buf[12:14], uint16(len(batch)))
	off := wireHeader
	for _, s := range batch {
		buf[off] = s.Node
		binary.BigEndian.PutUint64(buf[off+1:off+9], s.Key)
		off += wireSample
	}
	return buf
}

// DecodeBatch parses a datagram produced by EncodeBatch.
func DecodeBatch(b []byte) (sender uint16, total uint64, batch []Sample, err error) {
	if len(b) < wireHeader {
		return 0, 0, nil, errors.New("vswitch: short batch")
	}
	if b[0] != wireMagic || b[1] != wireVersion {
		return 0, 0, nil, errors.New("vswitch: bad batch magic/version")
	}
	sender = binary.BigEndian.Uint16(b[2:4])
	total = binary.BigEndian.Uint64(b[4:12])
	count := int(binary.BigEndian.Uint16(b[12:14]))
	if len(b) < wireHeader+count*wireSample {
		return 0, 0, nil, errors.New("vswitch: truncated batch")
	}
	batch = make([]Sample, count)
	off := wireHeader
	for i := range batch {
		batch[i] = Sample{
			Node: b[off],
			Key:  binary.BigEndian.Uint64(b[off+1 : off+9]),
		}
		off += wireSample
	}
	return sender, total, batch, nil
}

// SamplerHook is the switch-side half of the distributed deployment: per
// packet it performs only the sampling decision; sampled prefixes are
// batched to the transport. With V > H the decision runs on the geometric
// skip sampler (the non-sampled path is one compare), and masking uses the
// domain's precomputed AND table directly.
type SamplerHook struct {
	dom       *hierarchy.Domain[uint64]
	maskTbl   []uint64
	rng       *fastrand.Source
	tr        Transport
	v, h      uint64
	batch     []Sample
	batchSize int
	packets   uint64
	sendErr   error
	sender    uint16

	// Geometric skip sampling (V > H): next sampling watermark on packets.
	useSkip    bool
	nextSample uint64
	geo        *fastrand.GeometricSampler
}

// SetSender tags this hook's batches with a switch id, letting one collector
// aggregate several switches. Defaults to 0.
func (s *SamplerHook) SetSender(id uint16) { s.sender = id }

// NewSamplerHook builds the switch-side sampler. v must be ≥ H; batchSize
// ≤ MaxBatch (0 means MaxBatch).
func NewSamplerHook(dom *hierarchy.Domain[uint64], v int, seed uint64, tr Transport, batchSize int) *SamplerHook {
	h := dom.Size()
	if v == 0 {
		v = h
	}
	if v < h {
		panic("vswitch: V must be at least H")
	}
	if batchSize <= 0 || batchSize > MaxBatch {
		batchSize = MaxBatch
	}
	tbl, ok := dom.MaskTable()
	if !ok {
		panic("vswitch: domain lacks an integer mask table")
	}
	s := &SamplerHook{
		dom:       dom,
		maskTbl:   tbl,
		rng:       fastrand.New(seed),
		tr:        tr,
		v:         uint64(v),
		h:         uint64(h),
		batch:     make([]Sample, 0, batchSize),
		batchSize: batchSize,
	}
	if v > h {
		s.useSkip = true
		s.geo = fastrand.NewGeometricSampler(float64(h) / float64(v))
		s.nextSample = 1 + s.geo.Next(s.rng)
	}
	return s
}

// OnPacket performs the RHHH sampling decision and enqueues a sample when
// it hits.
func (s *SamplerHook) OnPacket(p trace.Packet) {
	s.packets++
	if s.useSkip {
		if s.packets < s.nextSample {
			return
		}
		s.enqueue(p.Key2())
		s.nextSample = s.packets + 1 + s.geo.Next(s.rng)
		return
	}
	if d := s.rng.Uint64n(s.v); d < s.h {
		node := uint8(d)
		s.batch = append(s.batch, Sample{Node: node, Key: p.Key2() & s.maskTbl[node]})
		if len(s.batch) >= s.batchSize {
			s.flush()
		}
	}
}

// OnBatch processes a batch of packets, fast-forwarding over non-sampled
// runs when the skip sampler is active.
func (s *SamplerHook) OnBatch(ps []trace.Packet) {
	if !s.useSkip {
		for _, p := range ps {
			s.OnPacket(p)
		}
		return
	}
	base := s.packets
	s.packets += uint64(len(ps))
	for s.nextSample <= s.packets {
		s.enqueue(ps[s.nextSample-base-1].Key2())
		s.nextSample += 1 + s.geo.Next(s.rng)
	}
}

// enqueue draws the node for a sampled packet key and buffers the masked
// sample, flushing a full batch.
func (s *SamplerHook) enqueue(key uint64) {
	node := uint8(s.rng.Uint64n(s.h))
	s.batch = append(s.batch, Sample{Node: node, Key: key & s.maskTbl[node]})
	if len(s.batch) >= s.batchSize {
		s.flush()
	}
}

func (s *SamplerHook) flush() {
	if err := s.tr.Send(s.sender, s.packets, s.batch); err != nil && s.sendErr == nil {
		s.sendErr = err
	}
	s.batch = s.batch[:0]
}

// Flush sends any buffered samples (and the final packet count) downstream.
// It reports the first transport error encountered, if any.
func (s *SamplerHook) Flush() error {
	s.flush()
	return s.sendErr
}

// Packets returns how many packets the hook has seen.
func (s *SamplerHook) Packets() uint64 { return s.packets }

// Collector is the measurement-VM side: it owns the per-node HH instances
// and reconstructs the RHHH estimator from received samples and/or per-sender
// engine replicas kept by the acked report protocol (see HandleMessage). A
// sender should use either the sample stream or reports, not both — mixing
// would double count its traffic. Safe for concurrent Apply/Output.
type Collector struct {
	mu     sync.Mutex
	dom    *hierarchy.Domain[uint64]
	sums   []*spacesaving.Summary[uint64]
	inst   []core.Instance[uint64] // read view of sums for Extract
	v      int
	eps    float64
	delta  float64
	totals map[uint16]uint64 // per-sender latest packet counts (sample stream)

	// Reporting senders: per-sender whole-state replicas plus the acked
	// report protocol state that keeps each replica consistent under loss,
	// reorder and sender restarts. Read together with the sample-fed
	// instances at query time; all query scratch is reused across queries.
	senders map[uint16]*senderState
	frags   map[uint16]*fragAssembly // lazily built 'F' reassembly buffers
	epoch   uint32                   // collector incarnation; bumped by Restore (fail-over)
	stats   CollectorStats
	dcodec  core.DeltaCodec[uint64]
	order   []uint16 // scratch: sender ids in deterministic merge order
	local   core.EngineSnapshot[uint64]
	inputs  []*core.EngineSnapshot[uint64]

	// Reusable extraction workspace shared by both query modes, plus a
	// dirty flag so the local sample-fed state is only re-captured (and the
	// extraction only re-run) when new samples actually arrived.
	ex         *core.Extractor[uint64]
	localDirty bool
	localBuilt bool

	// Scrape scratch for the per-sender telemetry collectors (telemetry.go):
	// the sorted id slice and the cached rendered label sets.
	tmOrder  []uint16
	tmLabels map[uint16]string
}

// NewCollector builds a collector matching the sampler's configuration
// (same V; ε and δ as in the RHHH engine).
func NewCollector(dom *hierarchy.Domain[uint64], epsilon, delta float64, v int) *Collector {
	if v == 0 {
		v = dom.Size()
	}
	if v < dom.Size() {
		panic("vswitch: V must be at least H")
	}
	counters := int(math.Ceil((1 + epsilon) / epsilon))
	sums := make([]*spacesaving.Summary[uint64], dom.Size())
	for i := range sums {
		sums[i] = spacesaving.New[uint64](counters)
	}
	return &Collector{
		dom:     dom,
		sums:    sums,
		inst:    core.WrapSummaries(sums),
		v:       v,
		eps:     epsilon,
		delta:   delta,
		totals:  make(map[uint16]uint64),
		senders: make(map[uint16]*senderState),
		epoch:   1,
		ex:      core.NewExtractor[uint64](dom),
	}
}

// Apply folds one batch into the instances. Packet counts are cumulative
// per sender; the collector keeps the latest per sender and sums them.
func (c *Collector) Apply(sender uint16, total uint64, batch []Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.applySamplesLocked(sender, total, batch)
}

func (c *Collector) applySamplesLocked(sender uint16, total uint64, batch []Sample) {
	if total > c.totals[sender] {
		c.totals[sender] = total
	}
	for _, s := range batch {
		if int(s.Node) < len(c.sums) {
			c.sums[s.Node].Increment(s.Key)
		}
	}
	c.localDirty = true
}

// Packets returns the total packet count across all reporting switches,
// sample-fed and replica-backed alike.
func (c *Collector) Packets() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, t := range c.totals {
		n += t
	}
	for _, st := range c.senders {
		n += st.snap.Packets
	}
	return n
}

// Updates returns the total number of samples folded into the instances.
func (c *Collector) Updates() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, s := range c.sums {
		n += s.N()
	}
	return n
}

// Output answers the HHH query exactly as the co-located engine would.
// Reporting senders' replicas are merged with the sample-fed state at query
// time.
//
// The returned slice is the collector's reusable query workspace: treat it
// as read-only, valid until the next Output call — copy it to retain or
// reorder results. Warm queries allocate nothing, and a query with no new
// samples or applied reports since the previous one short-circuits to the
// retained result.
func (c *Collector) Output(theta float64) []core.Result[uint64] {
	if !(theta > 0 && theta <= 1) {
		panic("vswitch: theta must be in (0, 1]")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out, _ := c.outputLocked(theta)
	return out
}

// OutputInto appends the HHH set for θ (and returns the stream weight behind
// it) to dst under the collector's lock — the form concurrent consumers use,
// since Output's returned slice is the collector's shared workspace and a
// later query from another goroutine would rewrite it.
func (c *Collector) OutputInto(dst []core.Result[uint64], theta float64) ([]core.Result[uint64], uint64) {
	if !(theta > 0 && theta <= 1) {
		panic("vswitch: theta must be in (0, 1]")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out, n := c.outputLocked(theta)
	return append(dst[:0], out...), n
}

// refreshLocalLocked re-captures the sample-fed local state into c.local when
// samples arrived since the last capture; c.mu must be held.
func (c *Collector) refreshLocalLocked(nTotal uint64) {
	if !c.localDirty && c.localBuilt {
		return
	}
	if len(c.local.Nodes) != len(c.sums) {
		c.local.Nodes = make([]spacesaving.Snapshot[uint64], len(c.sums))
	}
	for i, s := range c.sums {
		// The collector's summaries only ever absorb increments, so a
		// node whose N matches the previous capture is unchanged — keep
		// its copy and generation, so a node merged by an earlier query
		// stays merged unless this batch of samples touched it.
		if c.localBuilt && c.local.Nodes[i].N == s.N() && c.local.Nodes[i].Gen() != 0 {
			continue
		}
		s.SnapshotInto(&c.local.Nodes[i])
	}
	c.local.Packets, c.local.Weight = nTotal, nTotal
	c.local.V, c.local.R = c.v, 1
	c.local.Epsilon, c.local.Delta = c.eps, c.delta
	c.local.Invalidate()
	c.localDirty, c.localBuilt = false, true
}

// outputLocked is the query body; c.mu must be held.
func (c *Collector) outputLocked(theta float64) ([]core.Result[uint64], uint64) {
	var nTotal uint64
	for _, t := range c.totals {
		nTotal += t
	}
	if len(c.senders) == 0 {
		n := float64(nTotal)
		if n == 0 {
			return nil, 0
		}
		corr := core.SamplingCorrection(n, c.v, 1, c.delta)
		return c.ex.Extract(c.inst, n, float64(c.v), corr, theta), nTotal
	}
	// Read the sample-fed state and every sender's latest snapshot as one
	// union (deterministically: local state first, then senders in
	// ascending id order), without building the merged snapshot: the
	// extractor merges a node only when it reads past the node's head. The
	// local capture is refreshed only when samples arrived since the last
	// query; the extraction recognizes unchanged inputs on its own.
	c.refreshLocalLocked(nTotal)
	c.order = c.order[:0]
	for id := range c.senders {
		c.order = append(c.order, id)
	}
	slices.Sort(c.order)
	c.inputs = append(c.inputs[:0], &c.local)
	weight := c.local.Weight
	for _, id := range c.order {
		snap := c.senders[id].snap
		c.inputs = append(c.inputs, snap)
		weight += snap.Weight
	}
	if weight == 0 {
		return nil, 0
	}
	return c.ex.ExtractSnapshots(c.inputs, theta), weight
}

// checkSnapshotConfig validates that a reported snapshot matches the
// collector's configuration.
func (c *Collector) checkSnapshotConfig(es *core.EngineSnapshot[uint64]) error {
	if len(es.Nodes) != c.dom.Size() {
		return fmt.Errorf("vswitch: snapshot has %d nodes, lattice has %d", len(es.Nodes), c.dom.Size())
	}
	if es.V != c.v {
		return fmt.Errorf("vswitch: snapshot V=%d, collector V=%d", es.V, c.v)
	}
	if es.R != 1 {
		return fmt.Errorf("vswitch: snapshot R=%d unsupported by the collector", es.R)
	}
	if es.Epsilon != c.eps || es.Delta != c.delta {
		return fmt.Errorf("vswitch: snapshot ε=%g δ=%g, collector ε=%g δ=%g",
			es.Epsilon, es.Delta, c.eps, c.delta)
	}
	return nil
}

// InProcTransport delivers batches to a Collector over a buffered channel
// drained by a dedicated goroutine — the in-process stand-in for the
// measurement VM.
type InProcTransport struct {
	ch   chan inProcMsg
	done chan struct{}
}

type inProcMsg struct {
	sender uint16
	total  uint64
	batch  []Sample
}

// NewInProcTransport starts the collector goroutine; depth is the channel
// buffer (backpressure beyond it, like a full vhost queue).
func NewInProcTransport(c *Collector, depth int) *InProcTransport {
	if depth <= 0 {
		depth = 256
	}
	t := &InProcTransport{
		ch:   make(chan inProcMsg, depth),
		done: make(chan struct{}),
	}
	go func() {
		defer close(t.done)
		for m := range t.ch {
			c.Apply(m.sender, m.total, m.batch)
		}
	}()
	return t
}

// Send copies the batch and enqueues it.
func (t *InProcTransport) Send(sender uint16, total uint64, batch []Sample) error {
	cp := make([]Sample, len(batch))
	copy(cp, batch)
	t.ch <- inProcMsg{sender: sender, total: total, batch: cp}
	return nil
}

// Close drains outstanding batches and stops the goroutine.
func (t *InProcTransport) Close() error {
	close(t.ch)
	<-t.done
	return nil
}

// UDPCollectorServer receives datagrams — sample batches and the acked
// delta/full report protocol — on a UDP socket, applies them to a Collector,
// and sends protocol acks back to the reporting switch's source address.
type UDPCollectorServer struct {
	conn       *net.UDPConn
	done       <-chan struct{}
	readErrors atomic.Uint64
	// closeTimeout bounds how long Close waits for the read loop (and the
	// in-flight handler it may be running) to join.
	closeTimeout time.Duration
}

// ListenUDP starts a collector server on addr (e.g. "127.0.0.1:0"). The read
// loop survives transient socket errors (counted in ReadErrors) and malformed
// datagrams (counted in the collector's DecodeErrors); it exits only when the
// socket is closed.
func ListenUDP(addr string, c *Collector) (*UDPCollectorServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("vswitch: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("vswitch: listening on %q: %w", addr, err)
	}
	// Best effort (the kernel clamps to rmem_max): a fragmented full resync
	// arrives as a burst of maximum-size datagrams, and the default socket
	// buffer holds only ~3 of them.
	_ = conn.SetReadBuffer(4 << 20)
	s := &UDPCollectorServer{conn: conn, closeTimeout: 5 * time.Second}
	// The read loop runs supervised: a panic in message handling is
	// captured and the loop restarted on the same socket (the sender's
	// retransmit covers the lost datagram). The supervisor's done channel
	// is the join handle Close waits on — it closes only when the loop,
	// including any in-flight handler call, has returned for good.
	s.done = resilience.Default.Go("vswitch/udp-collector", nil, func() {
		buf := make([]byte, 64<<10)
		for {
			n, raddr, err := conn.ReadFromUDP(buf)
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return
				}
				s.readErrors.Add(1)
				continue
			}
			ack, _ := c.HandleMessage(buf[:n])
			if ack != nil && raddr != nil {
				// Ack loss is the protocol's problem (the sender
				// retransmits), so a failed write is not fatal here.
				_, _ = conn.WriteToUDP(ack, raddr)
			}
		}
	})
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *UDPCollectorServer) Addr() string { return s.conn.LocalAddr().String() }

// ReadErrors returns how many transient socket read errors the server has
// survived.
func (s *UDPCollectorServer) ReadErrors() uint64 { return s.readErrors.Load() }

// SetCloseTimeout bounds how long Close waits for in-flight handling to
// join (default 5s). Call before Close.
func (s *UDPCollectorServer) SetCloseTimeout(d time.Duration) { s.closeTimeout = d }

// Close stops the server and joins the read goroutine — including any
// in-flight HandleMessage call — so the caller may tear down the collector
// the instant Close returns. The wait is bounded by the close timeout; a
// handler stuck past it is reported instead of hanging shutdown forever.
func (s *UDPCollectorServer) Close() error {
	err := s.conn.Close()
	t := time.NewTimer(s.closeTimeout)
	defer t.Stop()
	select {
	case <-s.done:
	case <-t.C:
		return fmt.Errorf("vswitch: collector read loop did not exit within %v", s.closeTimeout)
	}
	return err
}

// UDPTransport sends batches as UDP datagrams.
type UDPTransport struct {
	conn net.Conn
	buf  []byte
}

// DialUDP connects a transport to a collector server address.
func DialUDP(addr string) (*UDPTransport, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("vswitch: dialing %q: %w", addr, err)
	}
	return &UDPTransport{conn: conn}, nil
}

// Send encodes and transmits one batch (batches must respect MaxBatch).
func (t *UDPTransport) Send(sender uint16, total uint64, batch []Sample) error {
	if len(batch) > MaxBatch {
		return fmt.Errorf("vswitch: batch of %d exceeds MaxBatch", len(batch))
	}
	t.buf = EncodeBatch(t.buf, sender, total, batch)
	_, err := t.conn.Write(t.buf)
	return err
}

// Close closes the socket.
func (t *UDPTransport) Close() error { return t.conn.Close() }
