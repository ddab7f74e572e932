package core

import (
	"bytes"
	"testing"

	"lci/internal/base"
)

// FuzzHeader: encoding a header and decoding it back is the identity on
// every field, and any 32 wire bytes decode to a header that re-encodes
// to the same bytes, so no input byte is dropped or aliased.
//
//	go test -run '^$' -fuzz FuzzHeader -fuzztime 10s ./internal/core
func FuzzHeader(f *testing.F) {
	f.Add(make([]byte, headerSize), uint8(kEager), uint8(0), uint16(0), int32(0), uint32(0), uint32(8), uint64(0), uint64(0))
	f.Add(bytes.Repeat([]byte{0xff}, headerSize), uint8(kRTS), uint8(base.MatchTagOnly), uint16(3), int32(-1), uint32(1<<31), uint32(1<<20), uint64(7)<<32|9, uint64(1)<<63)
	f.Add([]byte("RTR header bytes, thirty-two ok!"), uint8(kRTR), uint8(255), uint16(0xffff), int32(-1<<31), uint32(0xffffffff), uint32(0xffffffff), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, wire []byte, kind, policy uint8, engine uint16, tag int32, rcomp, size uint32, token, rkey uint64) {
		h := header{
			kind: msgKind(kind), policy: base.MatchingPolicy(policy), engine: engine, tag: tag,
			rcomp: base.RComp(rcomp), size: size, token: token, rkey: rkey,
		}
		var buf [headerSize]byte
		h.encode(buf[:])
		if got := decodeHeader(buf[:]); got != h {
			t.Fatalf("decode(encode(%+v)) = %+v", h, got)
		}
		if len(wire) < headerSize {
			return
		}
		wire = wire[:headerSize]
		decodeHeader(wire).encode(buf[:])
		if !bytes.Equal(buf[:], wire) {
			t.Fatalf("encode(decode(%x)) = %x", wire, buf)
		}
	})
}

// FuzzImm: a put-with-signal immediate round-trips its rcomp (any value
// below 2^31, handler handles included) and any tag, and is never taken
// for a rendezvous immediate, which in turn always is one and round-trips
// its token; token-table tokens and RTS wire tokens unpack to the index,
// generation and device they were packed from.
//
//	go test -run '^$' -fuzz FuzzImm -fuzztime 10s ./internal/core
func FuzzImm(f *testing.F) {
	f.Add(uint32(0), int32(0), uint32(0), uint16(0), uint32(0), uint32(0))
	f.Add(uint32(1<<30|5), int32(-1), uint32(0xffffffff), uint16(0xffff), uint32(tokenIndexMask), uint32(0xffffffff))
	f.Add(uint32(0x7fffffff), int32(-1<<31), uint32(1<<16|3), uint16(1), uint32(3), uint32(7))
	f.Fuzz(func(t *testing.T, rc uint32, tag int32, rtoken uint32, gen uint16, idx uint32, dev uint32) {
		rc &= 0x7fffffff
		imm := encodePutImm(base.RComp(rc), int(tag))
		if isRdvImm(imm) {
			t.Fatalf("put imm %#x (rcomp %#x, tag %d) reads as rendezvous", imm, rc, tag)
		}
		if gotRC, gotTag := decodePutImm(imm); gotRC != base.RComp(rc) || gotTag != int(tag) {
			t.Fatalf("put imm (rcomp %#x, tag %d) decodes to (%#x, %d)", rc, tag, gotRC, gotTag)
		}
		rdv := encodeRdvImm(rtoken)
		if !isRdvImm(rdv) || uint32(rdv) != rtoken {
			t.Fatalf("rendezvous imm %#x of token %#x", rdv, rtoken)
		}
		idx &= tokenIndexMask
		tok := makeToken(gen, idx)
		if tokenIndex(tok) != idx || tokenGen(tok) != gen {
			t.Fatalf("token %#x of (gen %d, index %d) unpacks to (%d, %d)", tok, gen, idx, tokenGen(tok), tokenIndex(tok))
		}
		dev &= 0x7fffffff
		wire := rtsToken(int(dev), tok)
		if rtsTokenDevice(wire) != int(dev) || uint32(wire) != tok {
			t.Fatalf("RTS token %#x of (device %d, token %#x) unpacks to (%d, %#x)", wire, dev, tok, rtsTokenDevice(wire), uint32(wire))
		}
	})
}
