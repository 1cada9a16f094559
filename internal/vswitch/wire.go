package vswitch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"rhhh/internal/core"
)

// Acked report protocol wire formats. Three frames share one fixed header so
// the collector can dispatch on the first byte:
//
//	'D' v1  delta report: only the lattice nodes whose mutation generation
//	        moved since the last acked report, entry-delta-coded against it.
//	'S' v2  full state report (resync): the whole engine snapshot.
//	'A' v1  ack, collector → switch.
//
// Report header ('D' and 'S' v2), big endian:
//
//	offset  field
//	0       magic
//	1       version
//	2       sender  u16   switch id
//	4       epoch   u32   collector incarnation the report targets (0 = unknown)
//	8       boot    u32   sender incarnation (fresh random per process)
//	12      seq     u32   report sequence number, strictly increasing per boot
//	16      baseSeq u32   seq of the acked report the delta was encoded against
//	20      dropped u64   reports the sender dropped/superseded so far
//	28      payload       engine snapshot ('S') or engine delta ('D')
//	...     crc     u32   CRC-32C over everything before it
//
// The CRC matters: UDP's 16-bit checksum is too weak for the "collector state
// bit-identical to loss-free" guarantee under deliberately corrupted frames,
// and the fault-injection harness flips bits at up to 20% per report.
const (
	deltaMsgMagic   = 'D'
	deltaMsgVersion = 1
	stateMsgMagic   = 'S'
	stateMsgVersion = 2
	ackMsgMagic     = 'A'
	ackMsgVersion   = 1

	reportHeaderLen = 2 + 2 + 4 + 4 + 4 + 4 + 8
	frameCRCLen     = 4

	// Ack frame: magic, version, sender u16, epoch u32, seq u32, flags u8
	// (bit 0: resync requested), crc u32.
	ackMsgLen = 2 + 2 + 4 + 4 + 1 + frameCRCLen
)

// castagnoli is the CRC-32C table shared by all protocol frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrameCRC seals a frame with the CRC-32C of its contents.
func appendFrameCRC(buf []byte) []byte {
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// verifyFrameCRC checks and strips a frame's trailing CRC.
func verifyFrameCRC(b []byte) ([]byte, error) {
	if len(b) < frameCRCLen {
		return nil, errors.New("vswitch: frame too short for checksum")
	}
	body := b[:len(b)-frameCRCLen]
	want := binary.BigEndian.Uint32(b[len(b)-frameCRCLen:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, errors.New("vswitch: frame checksum mismatch")
	}
	return body, nil
}

// ReportHeader is the protocol header shared by delta ('D') and full-state
// ('S' v2) reports.
type ReportHeader struct {
	Sender  uint16
	Epoch   uint32 // collector incarnation the report targets; 0 = unknown yet
	Boot    uint32 // sender incarnation
	Seq     uint32 // per-boot, strictly increasing
	BaseSeq uint32 // deltas: seq of the acked report they are encoded against
	Dropped uint64 // reports dropped/superseded by the sender so far
	Full    bool   // true for 'S' v2 frames
}

func appendReportHeader(buf []byte, magic, version byte, h *ReportHeader) []byte {
	buf = append(buf, magic, version)
	buf = binary.BigEndian.AppendUint16(buf, h.Sender)
	buf = binary.BigEndian.AppendUint32(buf, h.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, h.Boot)
	buf = binary.BigEndian.AppendUint32(buf, h.Seq)
	buf = binary.BigEndian.AppendUint32(buf, h.BaseSeq)
	buf = binary.BigEndian.AppendUint64(buf, h.Dropped)
	return buf
}

// EncodeStateMsg serializes a full-state ('S' v2) report into buf (reusing
// its storage) and returns the encoded frame.
func EncodeStateMsg(buf []byte, h *ReportHeader, es *core.EngineSnapshot[uint64]) ([]byte, error) {
	buf = appendReportHeader(buf[:0], stateMsgMagic, stateMsgVersion, h)
	buf, err := es.AppendBinary(buf)
	if err != nil {
		return nil, err
	}
	return appendFrameCRC(buf), nil
}

// EncodeDeltaMsg serializes a delta ('D') report into buf (reusing its
// storage): the nodes of es whose generation moved relative to baseGens,
// entry-delta-coded against base. Returns the frame and the number of nodes
// it carries.
func EncodeDeltaMsg(buf []byte, h *ReportHeader, codec *core.DeltaCodec[uint64], es, base *core.EngineSnapshot[uint64], baseGens []uint64) ([]byte, int, error) {
	buf = appendReportHeader(buf[:0], deltaMsgMagic, deltaMsgVersion, h)
	buf, nodes, err := codec.AppendDelta(buf, es, base, baseGens)
	if err != nil {
		return nil, 0, err
	}
	return appendFrameCRC(buf), nodes, nil
}

// DecodeReportMsg verifies a 'D' or 'S' v2 frame's checksum and parses its
// header, returning the payload (engine delta or engine snapshot encoding)
// still to be decoded against the receiver's per-sender state.
func DecodeReportMsg(b []byte) (h ReportHeader, payload []byte, err error) {
	body, err := verifyFrameCRC(b)
	if err != nil {
		return h, nil, err
	}
	if len(body) < reportHeaderLen {
		return h, nil, errors.New("vswitch: short report frame")
	}
	switch {
	case body[0] == deltaMsgMagic && body[1] == deltaMsgVersion:
		h.Full = false
	case body[0] == stateMsgMagic && body[1] == stateMsgVersion:
		h.Full = true
	default:
		return h, nil, fmt.Errorf("vswitch: bad report magic/version %q/%d", body[0], body[1])
	}
	h.Sender = binary.BigEndian.Uint16(body[2:4])
	h.Epoch = binary.BigEndian.Uint32(body[4:8])
	h.Boot = binary.BigEndian.Uint32(body[8:12])
	h.Seq = binary.BigEndian.Uint32(body[12:16])
	h.BaseSeq = binary.BigEndian.Uint32(body[16:20])
	h.Dropped = binary.BigEndian.Uint64(body[20:28])
	return h, body[reportHeaderLen:], nil
}

// Oversized reports travel as 'F' fragment datagrams: a 'D'/'S' v2 frame
// longer than a transport's datagram limit is split into balanced chunks,
// each wrapped in a fragment header with its own CRC, and reassembled by the
// collector before normal dispatch. The inner frame's CRC still seals the
// report end to end; the fragment CRC exists so a corrupted fragment is
// rejected at the door (counted in DecodeErrors) instead of poisoning
// per-sender reassembly state. Loss of any fragment just means the report
// never completes — the protocol's retransmit resends every fragment, and
// retransmits reuse the id so they refill the same buffer.
//
// Fragment frame, big endian:
//
//	offset  field
//	0       magic   'F'
//	1       version
//	2       sender  u16   copied from the inner report header
//	4       id      u32   the inner report's seq
//	8       total   u32   inner frame length
//	12      idx     u16   fragment index
//	14      count   u16   fragment count; chunk stride is ceil(total/count)
//	16      chunk
//	...     crc     u32   CRC-32C over everything before it
const (
	fragMsgMagic    = 'F'
	fragMsgVersion  = 1
	fragMsgHeader   = 2 + 2 + 4 + 4 + 2 + 2
	fragMsgOverhead = fragMsgHeader + frameCRCLen

	// maxFragTotal bounds a reassembled report, and with it the reassembly
	// buffer a sender can pin on the collector: far above any real engine
	// state, far below a memory bomb.
	maxFragTotal = 1 << 24
)

// appendFragments splits an encoded 'D'/'S' v2 report frame into fragment
// datagrams of at most maxSize bytes each, appending them to frames. Chunks
// are balanced (stride = ceil(len/count)) so the receiver can derive every
// fragment's offset and expected length from the header alone.
func appendFragments(frames [][]byte, frame []byte, maxSize int) ([][]byte, error) {
	chunkCap := maxSize - fragMsgOverhead
	if chunkCap < 1 {
		return nil, fmt.Errorf("vswitch: fragment size %d cannot carry a payload", maxSize)
	}
	if len(frame) < reportHeaderLen+frameCRCLen {
		return nil, errors.New("vswitch: fragmenting a short report frame")
	}
	switch {
	case frame[0] == deltaMsgMagic && frame[1] == deltaMsgVersion:
	case frame[0] == stateMsgMagic && frame[1] == stateMsgVersion:
	default:
		return nil, fmt.Errorf("vswitch: fragmenting a non-report frame %q/%d", frame[0], frame[1])
	}
	if len(frame) > maxFragTotal {
		return nil, fmt.Errorf("vswitch: report of %d bytes exceeds the %d byte reassembly limit", len(frame), maxFragTotal)
	}
	sender := binary.BigEndian.Uint16(frame[2:4])
	id := binary.BigEndian.Uint32(frame[12:16]) // the report's seq
	count := (len(frame) + chunkCap - 1) / chunkCap
	if count > 0xffff {
		return nil, fmt.Errorf("vswitch: report needs %d fragments, limit 65535", count)
	}
	stride := (len(frame) + count - 1) / count
	for idx := 0; idx < count; idx++ {
		off := idx * stride
		end := min(off+stride, len(frame))
		buf := make([]byte, 0, fragMsgOverhead+end-off)
		buf = append(buf, fragMsgMagic, fragMsgVersion)
		buf = binary.BigEndian.AppendUint16(buf, sender)
		buf = binary.BigEndian.AppendUint32(buf, id)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(frame)))
		buf = binary.BigEndian.AppendUint16(buf, uint16(idx))
		buf = binary.BigEndian.AppendUint16(buf, uint16(count))
		buf = append(buf, frame[off:end]...)
		frames = append(frames, appendFrameCRC(buf))
	}
	return frames, nil
}

// fragMsg is one decoded fragment datagram.
type fragMsg struct {
	sender     uint16
	id         uint32
	total      int
	idx, count int
	chunk      []byte
}

// decodeFragMsg parses and checksum-verifies a fragment datagram. The chunk
// length must be exactly what the balanced split implies, so a truncated or
// padded fragment can never assemble.
func decodeFragMsg(b []byte) (fragMsg, error) {
	var f fragMsg
	body, err := verifyFrameCRC(b)
	if err != nil {
		return f, err
	}
	if len(body) < fragMsgHeader {
		return f, errors.New("vswitch: short fragment frame")
	}
	if body[0] != fragMsgMagic || body[1] != fragMsgVersion {
		return f, errors.New("vswitch: bad fragment magic/version")
	}
	f.sender = binary.BigEndian.Uint16(body[2:4])
	f.id = binary.BigEndian.Uint32(body[4:8])
	f.total = int(binary.BigEndian.Uint32(body[8:12]))
	f.idx = int(binary.BigEndian.Uint16(body[12:14]))
	f.count = int(binary.BigEndian.Uint16(body[14:16]))
	f.chunk = body[fragMsgHeader:]
	if f.total < reportHeaderLen+frameCRCLen || f.total > maxFragTotal {
		return f, fmt.Errorf("vswitch: fragment total %d out of range", f.total)
	}
	if f.count < 1 || f.idx >= f.count {
		return f, fmt.Errorf("vswitch: fragment %d of %d out of range", f.idx, f.count)
	}
	stride := (f.total + f.count - 1) / f.count
	want := min(stride, f.total-f.idx*stride)
	if want < 1 || len(f.chunk) != want {
		return f, fmt.Errorf("vswitch: fragment %d of %d carries %d bytes, want %d", f.idx, f.count, len(f.chunk), want)
	}
	return f, nil
}

// Ack is the collector's response to one report. Resync asks the sender to
// fall back to a full 'S' v2 report: the collector could not apply the delta
// (unknown sender, sequence gap, stale epoch, or a just-failed-over standby).
// Epoch always carries the collector's current incarnation so senders learn
// it from any ack.
type Ack struct {
	Sender uint16
	Epoch  uint32
	Seq    uint32 // the acknowledged report
	Resync bool
}

// EncodeAckMsg serializes an ack into buf (reusing its storage).
func EncodeAckMsg(buf []byte, a Ack) []byte {
	buf = append(buf[:0], ackMsgMagic, ackMsgVersion)
	buf = binary.BigEndian.AppendUint16(buf, a.Sender)
	buf = binary.BigEndian.AppendUint32(buf, a.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, a.Seq)
	var flags byte
	if a.Resync {
		flags = 1
	}
	buf = append(buf, flags)
	return appendFrameCRC(buf)
}

// DecodeAckMsg parses and checksum-verifies an ack frame.
func DecodeAckMsg(b []byte) (Ack, error) {
	var a Ack
	if len(b) != ackMsgLen {
		return a, fmt.Errorf("vswitch: ack frame of %d bytes, want %d", len(b), ackMsgLen)
	}
	body, err := verifyFrameCRC(b)
	if err != nil {
		return a, err
	}
	if body[0] != ackMsgMagic || body[1] != ackMsgVersion {
		return a, errors.New("vswitch: bad ack magic/version")
	}
	a.Sender = binary.BigEndian.Uint16(body[2:4])
	a.Epoch = binary.BigEndian.Uint32(body[4:8])
	a.Seq = binary.BigEndian.Uint32(body[8:12])
	if body[12]&^byte(1) != 0 {
		return a, fmt.Errorf("vswitch: unknown ack flags %#x", body[12])
	}
	a.Resync = body[12]&1 != 0
	return a, nil
}
