package agg_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lci/internal/agg"
	"lci/internal/core"
	"lci/internal/netsim/nic"
)

const corruptFrame = "agg: corrupt batch frame"

// walk runs WalkFrames over p and returns the records it delivered
// (copied) and the panic value, if any.
func walk(p []byte) (recs [][]byte, panicked any) {
	defer func() { panicked = recover() }()
	agg.WalkFrames(p, func(rec []byte) { recs = append(recs, append([]byte(nil), rec...)) })
	return recs, nil
}

// FuzzWalkFrames: any list of records up to MaxRecord() (at the default
// buffer size) round-trips through AppendFrame → WalkFrames, and
// WalkFrames over arbitrary bytes either returns, having taken every
// byte as part of a whole frame (the records it delivered re-frame to
// exactly the input), or panics with "agg: corrupt batch frame" and
// nothing else. A trailing partial frame header — one byte left after
// the last whole frame — is not accepted: it is corruption, like a frame
// that overruns the batch, and panics (TestWalkFramesTrailingByte).
//
//	go test -run '^$' -fuzz FuzzWalkFrames -fuzztime 10s ./internal/agg
func FuzzWalkFrames(f *testing.F) {
	rt := newRuntimes(f, 1, nic.Config{}, core.Config{})[0]
	maxRec := agg.New(rt, func(int, []byte) {}, agg.Config{}).MaxRecord()
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 1, 0, 0xff, 0xff}, []byte{3, 0, 'a', 'b', 'c'})
	f.Add([]byte{0xff, 0xff, 0xfe, 0xff}, []byte{3, 0, 'a', 'b', 'c', 9})
	f.Add([]byte{1, 0}, []byte{0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, lens, raw []byte) {
		// Each little-endian uint16 of lens is one record's length,
		// folded into [0, MaxRecord()].
		var want [][]byte
		var batch []byte
		for i := 0; i+1 < len(lens); i += 2 {
			rec := bytes.Repeat([]byte{byte(i)}, int(binary.LittleEndian.Uint16(lens[i:]))%(maxRec+1))
			want = append(want, rec)
			batch = agg.AppendFrame(batch, rec)
		}
		got, p := walk(batch)
		if p != nil || len(got) != len(want) {
			t.Fatalf("%d records walked back as %d (panic %v)", len(want), len(got), p)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: %d bytes walked back as %d", i, len(want[i]), len(got[i]))
			}
		}

		got, p = walk(raw)
		if p != nil {
			if p != corruptFrame {
				t.Fatalf("WalkFrames(%x) panicked with %v", raw, p)
			}
			return
		}
		var reframed []byte
		for _, rec := range got {
			reframed = agg.AppendFrame(reframed, rec)
		}
		if !bytes.Equal(reframed, raw) {
			t.Fatalf("WalkFrames(%x) accepted bytes it did not deliver: re-framed %x", raw, reframed)
		}
	})
}

// TestWalkFramesTrailingByte: a batch with one byte after its last whole
// frame — half a length prefix — is corrupt. WalkFrames used to stop
// there silently, dropping the evidence; it now panics like any other
// corrupt frame, after delivering the whole frames before it.
func TestWalkFramesTrailingByte(t *testing.T) {
	batch := agg.AppendFrame(agg.AppendFrame(nil, []byte("one")), []byte("two"))
	if got, p := walk(batch); p != nil || len(got) != 2 {
		t.Fatalf("well-formed batch: %d records, panic %v", len(got), p)
	}
	for _, tail := range [][]byte{{0}, {7}} {
		got, p := walk(append(append([]byte(nil), batch...), tail...))
		if p != corruptFrame || len(got) != 2 {
			t.Fatalf("batch + %x: %d records, panic %v, want 2 records and %q", tail, len(got), p, corruptFrame)
		}
	}
	if _, p := walk([]byte{0}); p != corruptFrame {
		t.Fatalf("lone byte: panic %v, want %q", p, corruptFrame)
	}
}
