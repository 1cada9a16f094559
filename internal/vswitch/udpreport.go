package vswitch

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rhhh/internal/resilience"
)

// UDPReportTransport carries the acked report protocol over UDP: reports go
// to the collector server's address, acks come back on the same socket and
// are buffered in a bounded drop-oldest inbox by a background reader
// goroutine (a blocking read on the reporter's thread would stall the
// datapath). Reports larger than one datagram are fragmented into 'F'
// frames the collector reassembles. Redial repoints the transport at a
// standby collector; a send failure also triggers an automatic reconnect to
// the current address.
type UDPReportTransport struct {
	// mu guards the connection lifecycle (conn, addr, reader handoff,
	// closed). The reader goroutine never takes it — it only touches the
	// inbox under inMu — so Close and Redial can wait for the reader to exit
	// while holding mu without deadlocking against an in-flight ack.
	mu       sync.Mutex
	addr     string
	conn     *net.UDPConn
	readDone <-chan struct{}
	closed   bool

	inMu     sync.Mutex
	inbox    [][]byte
	maxInbox int
	dropped  uint64

	frags [][]byte // scratch for fragmenting oversized reports
}

// DialUDPReport connects a report transport to a collector server address.
func DialUDPReport(addr string) (*UDPReportTransport, error) {
	t := &UDPReportTransport{maxInbox: 16}
	if err := t.redialLocked(addr); err != nil {
		return nil, err
	}
	return t, nil
}

// redialLocked (re)connects to addr and restarts the ack reader; callers
// hold t.mu or have exclusive access.
func (t *UDPReportTransport) redialLocked(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("vswitch: resolving %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return fmt.Errorf("vswitch: dialing %q: %w", addr, err)
	}
	_ = conn.SetWriteBuffer(4 << 20) // best effort, mirrors the server side
	if t.conn != nil {
		t.conn.Close()
		<-t.readDone
	}
	t.addr = addr
	t.conn = conn
	// The ack reader runs supervised: a panic is captured and the reader
	// restarted on the same socket instead of silently wedging the ack
	// path (the reporter would retransmit forever). The returned channel
	// closes when the reader exits for good — the join handle Close and
	// Redial wait on.
	t.readDone = resilience.Default.Go("vswitch/udp-ack-reader", nil, func() { t.readAcks(conn) })
	return nil
}

// readAcks drains ack datagrams into the bounded inbox until conn closes.
func (t *UDPReportTransport) readAcks(conn *net.UDPConn) {
	buf := make([]byte, 512)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		frame := append([]byte(nil), buf[:n]...)
		t.inMu.Lock()
		if len(t.inbox) >= t.maxInbox {
			copy(t.inbox, t.inbox[1:])
			t.inbox = t.inbox[:len(t.inbox)-1]
			t.dropped++
		}
		t.inbox = append(t.inbox, frame)
		t.inMu.Unlock()
	}
}

// maxUDPPayload is the largest UDP payload: 65535 minus the 8-byte UDP and
// 20-byte IP headers.
const maxUDPPayload = 65535 - 8 - 20

// SendReport implements ReportTransport. A report larger than one UDP
// datagram is split into 'F' fragment datagrams the collector reassembles;
// a send error reconnects once and retries (the report protocol retransmits
// on top of this, so a still-failing send is just reported).
func (t *UDPReportTransport) SendReport(frame []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return net.ErrClosed
	}
	if len(frame) <= maxUDPPayload {
		return t.writeLocked(frame)
	}
	frags, err := appendFragments(t.frags[:0], frame, maxUDPPayload)
	if err != nil {
		return err
	}
	t.frags = frags
	for i, fr := range frags {
		if i > 0 {
			// Pace the burst: on hosts with the stock ~208 KB socket buffer a
			// back-to-back run of maximum-size fragments tail-drops the same
			// fragments on every retransmit, wedging the resync forever. A
			// sub-millisecond gap lets the receiver drain; it only costs the
			// rare oversized report.
			time.Sleep(200 * time.Microsecond)
		}
		if err := t.writeLocked(fr); err != nil {
			return err
		}
	}
	return nil
}

// writeLocked sends one datagram, reconnecting once on a send error.
func (t *UDPReportTransport) writeLocked(frame []byte) error {
	if _, err := t.conn.Write(frame); err != nil {
		if rerr := t.redialLocked(t.addr); rerr != nil {
			return err
		}
		if _, err = t.conn.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// RecvAck implements ReportTransport: it pops the oldest buffered ack.
func (t *UDPReportTransport) RecvAck(buf []byte) (int, bool) {
	t.inMu.Lock()
	defer t.inMu.Unlock()
	if len(t.inbox) == 0 {
		return 0, false
	}
	n := copy(buf, t.inbox[0])
	copy(t.inbox, t.inbox[1:])
	t.inbox = t.inbox[:len(t.inbox)-1]
	return n, true
}

// Redial repoints the transport at a (new) collector address — the switch
// side of a fail-over — and flushes acks buffered from the old one.
func (t *UDPReportTransport) Redial(addr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return net.ErrClosed
	}
	if err := t.redialLocked(addr); err != nil {
		return err
	}
	t.inMu.Lock()
	t.inbox = t.inbox[:0]
	t.inMu.Unlock()
	return nil
}

// Dropped reports acks discarded by the bounded inbox.
func (t *UDPReportTransport) Dropped() uint64 {
	t.inMu.Lock()
	defer t.inMu.Unlock()
	return t.dropped
}

// Close shuts the socket down and waits for the ack reader to exit.
func (t *UDPReportTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.conn.Close()
	<-t.readDone
	return err
}
