// Package core implements the LCI runtime (§5): devices, the
// communication protocols (inject, buffer-copy, zero-copy rendezvous), and
// the progress engine with all the reactions of the paper's Figure 2. The
// public API in the repository root package is a thin veneer over this
// package.
package core

import (
	"encoding/binary"
	"fmt"

	"lci/internal/base"
)

// msgKind identifies the protocol message carried by a packet.
type msgKind uint8

const (
	kEager   msgKind = iota + 1 // eager send-recv message (inject or buffer-copy)
	kEagerAM                    // eager active message
	kRTS                        // rendezvous request-to-send (send-recv)
	kRTSAM                      // rendezvous request-to-send (active message)
	kRTR                        // rendezvous ready-to-receive (reply)
)

// Exported wire-kind values for fault-injection schedules: the providers
// pass the wire kind as the fabric send's meta, so a fault.Rule built
// with fault.KindBit over these values targets exactly one protocol
// message type (e.g. drop only RTS/RTR handshakes, which the timeout
// layer can recover, and never eager payloads, which it cannot).
const (
	KindEager   = uint32(kEager)
	KindEagerAM = uint32(kEagerAM)
	KindRTS     = uint32(kRTS)
	KindRTSAM   = uint32(kRTSAM)
	KindRTR     = uint32(kRTR)
)

func (k msgKind) String() string {
	switch k {
	case kEager:
		return "eager"
	case kEagerAM:
		return "eager-am"
	case kRTS:
		return "rts"
	case kRTSAM:
		return "rts-am"
	case kRTR:
		return "rtr"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// headerSize is the fixed wire-header length at the front of every packet.
const headerSize = 32

// header is the LCI wire header. Only the fields relevant to the given
// kind are meaningful.
type header struct {
	kind   msgKind
	policy base.MatchingPolicy
	engine uint16 // matching-engine id (0 = runtime default)
	tag    int32
	rcomp  base.RComp // eager-AM/RTS-AM: target rcomp; RTR: receiver token
	size   uint32     // payload size (eager) or total message size (RTS)
	token  uint64     // rendezvous sender token (RTS, echoed by RTR)
	rkey   uint64     // RTR: registered rkey of the receive buffer; RTS: sender's RTS sequence
}

// encode writes the header into buf[:headerSize].
func (h header) encode(buf []byte) {
	_ = buf[headerSize-1]
	buf[0] = byte(h.kind)
	buf[1] = byte(h.policy)
	binary.LittleEndian.PutUint16(buf[2:], h.engine)
	binary.LittleEndian.PutUint32(buf[4:], uint32(h.tag))
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.rcomp))
	binary.LittleEndian.PutUint32(buf[12:], h.size)
	binary.LittleEndian.PutUint64(buf[16:], h.token)
	binary.LittleEndian.PutUint64(buf[24:], h.rkey)
}

// decodeHeader reads a header back from buf[:headerSize].
func decodeHeader(buf []byte) header {
	_ = buf[headerSize-1]
	return header{
		kind:   msgKind(buf[0]),
		policy: base.MatchingPolicy(buf[1]),
		engine: binary.LittleEndian.Uint16(buf[2:]),
		tag:    int32(binary.LittleEndian.Uint32(buf[4:])),
		rcomp:  base.RComp(binary.LittleEndian.Uint32(buf[8:])),
		size:   binary.LittleEndian.Uint32(buf[12:]),
		token:  binary.LittleEndian.Uint64(buf[16:]),
		rkey:   binary.LittleEndian.Uint64(buf[24:]),
	}
}

// Immediate-data encoding for RMA writes: bit 63 distinguishes rendezvous
// completion tokens from put-with-signal notifications.
const immRendezvousBit = uint64(1) << 63

// encodePutImm packs a put-with-signal notification: target rcomp and tag.
func encodePutImm(rc base.RComp, tag int) uint64 {
	return uint64(rc)<<32 | uint64(uint32(tag))
}

// decodePutImm unpacks a put-with-signal notification.
func decodePutImm(imm uint64) (base.RComp, int) {
	return base.RComp(imm >> 32 & 0x7fffffff), int(int32(uint32(imm)))
}

// encodeRdvImm packs a rendezvous receiver token.
func encodeRdvImm(token uint32) uint64 { return immRendezvousBit | uint64(token) }

// isRdvImm reports whether imm carries a rendezvous token.
func isRdvImm(imm uint64) bool { return imm&immRendezvousBit != 0 }
