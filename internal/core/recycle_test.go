package core

import "testing"

// checkRecordsBalanced progresses rts until they are quiet, then fails t
// for every device that has not got back each operation record it
// handed out: every receive, send and rendezvous that completed or failed
// must have returned its record to the device that made it.
func checkRecordsBalanced(t *testing.T, rts ...*Runtime) {
	t.Helper()
	for quiet, i := 0, 0; quiet < 2 && i < 10_000; i++ {
		n := 0
		for _, rt := range rts {
			n += rt.ProgressAll()
		}
		if quiet++; n > 0 {
			quiet = 0
		}
	}
	for r, rt := range rts {
		for i := 0; i < rt.NumDevices(); i++ {
			if out := rt.Device(i).recordsOut(); out != (recordsOut{}) {
				t.Errorf("rank %d device %d: records not returned: %+v", r, i, out)
			}
		}
	}
}

// TestRecordDoublePutPanics: returning a record twice would hand it to two
// operations at once; the free list refuses with a panic instead.
func TestRecordDoublePutPanics(t *testing.T) {
	rts := newTestRuntime(t, 1)
	defer rts[0].Close()
	d := rts[0].DefaultDevice()
	op := d.recvOps.get(d)
	op.recycle()
	defer func() {
		if recover() == nil {
			t.Fatal("second recycle of one record did not panic")
		}
		if out := d.recordsOut(); out != (recordsOut{}) {
			t.Fatalf("records out after the refused put: %+v", out)
		}
	}()
	op.recycle()
}

// TestStaleScanCopyIgnored: a timeout scan works on copies taken outside
// the token lock. Once the copied rendezvous completes, its sendState is
// recycled into the next rendezvous; a late check of the stale copy must
// leave that one alone — no attempt counted, no RTS re-sent, no failure.
func TestStaleScanCopyIgnored(t *testing.T) {
	rts := newFaultRuntimes(t, 2, nil, Config{RendezvousTimeoutEpochs: 64, RendezvousMaxAttempts: 1})
	defer rts[0].Close()
	defer rts[1].Close()
	d := rts[0].DefaultDevice()
	size := rts[0].MaxEager() + 1
	send := func(c *atomicCounter) {
		if _, err := rts[0].PostSend(1, make([]byte, size), 1, c, Options{DisallowRetry: true}); err != nil {
			t.Fatal(err)
		}
	}
	first, second, recvd := &atomicCounter{}, &atomicCounter{}, &atomicCounter{}
	if _, err := rts[1].PostRecv(0, make([]byte, size), 1, recvd, Options{}); err != nil {
		t.Fatal(err)
	}
	send(first)
	stale := d.tokens.scan(nil)
	if len(stale) != 1 {
		t.Fatalf("%d live tokens after one rendezvous post, want 1", len(stale))
	}
	progressUntil(t, rts, 10_000, func() bool { return first.n.Load() == 1 && recvd.n.Load() == 1 })

	send(second)
	live := d.tokens.scan(nil)
	if len(live) != 1 || live[0].v != stale[0].v || live[0].tok == stale[0].tok {
		t.Fatalf("the second rendezvous should reuse the first one's record under a new token: stale %+v, live %+v", stale, live)
	}
	ss := live[0].v.(*sendState)
	for i := 0; i < 2; i++ { // twice: the second check would fail an attempted handshake
		d.checkTimeout(1<<20, stale[0].tok, stale[0].v.(handshake))
	}
	if ss.attempts != 0 || second.n.Load() != 0 {
		t.Fatalf("stale check touched the live rendezvous: attempts=%d completions=%d", ss.attempts, second.n.Load())
	}
	if re, to, _, _, _ := sumHardening(rts[0]); re != 0 || to != 0 {
		t.Fatalf("stale check re-sent %d RTSs and timed out %d", re, to)
	}
	if _, err := rts[1].PostRecv(0, make([]byte, size), 1, recvd, Options{}); err != nil {
		t.Fatal(err)
	}
	progressUntil(t, rts, 10_000, func() bool { return second.n.Load() == 1 && recvd.n.Load() == 2 })
	checkRecordsBalanced(t, rts...)
}
