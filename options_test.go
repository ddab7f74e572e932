package lci

import (
	"testing"

	"lci/internal/base"
	"lci/internal/comp"
	"lci/internal/core"
)

// TestBuildOptsFields: every With* constructor sets its own core.Options
// field and nothing else, the remote-buffer pair composes in either order,
// and a repeated option's last occurrence wins.
func TestBuildOptsFields(t *testing.T) {
	w := NewWorld(1)
	defer w.Close()
	rt, err := w.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	dev := rt.DefaultDevice()
	aff := rt.RegisterThread()
	me := rt.NewMatchingEngine(0)
	wk := rt.RegisterWorker()
	cnt := comp.NewCounter()
	ctx := &struct{ x int }{7}

	cases := []struct {
		name string
		opts []Option
		want core.Options
	}{
		{"none", nil, core.Options{}},
		{"zero value ignored", []Option{{}}, core.Options{}},
		{"device", []Option{WithDevice(dev)}, core.Options{Device: dev}},
		{"affinity", []Option{WithAffinity(aff)}, core.Options{Affinity: aff}},
		{"engine", []Option{WithMatchingEngine(me)}, core.Options{Engine: me}},
		{"policy", []Option{WithPolicy(MatchTagOnly)}, core.Options{Policy: base.MatchTagOnly}},
		{"rcomp", []Option{WithRemoteComp(RComp(5))}, core.Options{RComp: 5}},
		{"tag", []Option{WithTag(-3)}, core.Options{Tag: -3}},
		{"local comp", []Option{WithLocalComp(cnt)}, core.Options{LocalComp: cnt}},
		{"local comp nil", []Option{WithLocalComp(nil)}, core.Options{}},
		{"remote buffer", []Option{WithRemoteBuffer(9, 16)},
			core.Options{Remote: core.RemoteBuffer{RKey: 9, Offset: 16}, RemoteSet: true}},
		{"remote size", []Option{WithRemoteSize(32)},
			core.Options{Remote: core.RemoteBuffer{Size: 32}, RemoteSet: true}},
		{"remote buffer then size", []Option{WithRemoteBuffer(9, 16), WithRemoteSize(32)},
			core.Options{Remote: core.RemoteBuffer{RKey: 9, Offset: 16, Size: 32}, RemoteSet: true}},
		{"remote size then buffer", []Option{WithRemoteSize(32), WithRemoteBuffer(9, 16)},
			core.Options{Remote: core.RemoteBuffer{RKey: 9, Offset: 16, Size: 32}, RemoteSet: true}},
		{"remote buffer zero", []Option{WithRemoteBuffer(0, 0)}, core.Options{RemoteSet: true}},
		{"remote device 0", []Option{WithRemoteDevice(0)}, core.Options{RemoteDeviceSet: true}},
		{"remote device 3", []Option{WithRemoteDevice(3)}, core.Options{RemoteDevice: 3, RemoteDeviceSet: true}},
		{"context", []Option{WithContext(ctx)}, core.Options{Ctx: ctx}},
		{"context int", []Option{WithContext(42)}, core.Options{Ctx: 42}},
		{"worker", []Option{WithWorker(wk)}, core.Options{Worker: wk}},
		{"coll algorithm", []Option{WithCollAlgorithm(CollRing)}, core.Options{CollAlgorithm: CollRing}},
		{"no retry", []Option{WithNoRetry()}, core.Options{DisallowRetry: true}},
		{"last tag wins", []Option{WithTag(1), WithTag(2)}, core.Options{Tag: 2}},
		{"last remote device wins", []Option{WithRemoteDevice(2), WithRemoteDevice(0)},
			core.Options{RemoteDeviceSet: true}},
		{"last remote buffer wins", []Option{WithRemoteBuffer(1, 2), WithRemoteBuffer(3, 4)},
			core.Options{Remote: core.RemoteBuffer{RKey: 3, Offset: 4}, RemoteSet: true}},
		{"last context wins", []Option{WithContext(1), WithContext(nil)}, core.Options{}},
		{"mixed", []Option{WithDevice(dev), WithTag(7), WithContext(3), WithNoRetry()},
			core.Options{Device: dev, Tag: 7, Ctx: 3, DisallowRetry: true}},
	}
	for _, c := range cases {
		if got := buildOpts(c.opts); got != c.want {
			t.Errorf("%s: buildOpts = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestPostsAllocateNothing: the public posting surface adds no heap
// allocation to the runtime's own allocation-free small-message paths —
// options are values, so neither the option list nor the options struct
// they fill escapes.
func TestPostsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// Two ranks driven from this goroutine, so nothing else allocates
	// while a post is measured. Each measurement is a handful of posts,
	// well inside the receiver's pre-posted window and packet quota.
	const runs = 16
	w := NewWorld(2)
	defer w.Close()
	rt0, err := w.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	rt1, err := w.NewRuntime(1)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	handler := rt1.RegisterHandler(func(Status) { fired++ })
	putTarget := rt1.RegisterRComp(comp.NewCounter())
	window := make([]byte, 64)
	rkey, err := rt1.RegisterMemory(nil, window)
	if err != nil {
		t.Fatal(err)
	}
	dev := rt0.DefaultDevice()
	buf := make([]byte, 8)

	check := func(name string, post func() (Status, error)) {
		t.Helper()
		// Warm up outside the measurement: the first post to a peer
		// establishes the connection.
		for i := 0; i < 2; i++ {
			for {
				st, err := post()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !st.IsRetry() {
					break
				}
			}
		}
		// The provider paces injections, so a post may be refused with
		// Retry; the retried call is measured too.
		var failed error
		allocs := testing.AllocsPerRun(runs, func() {
			for {
				st, err := post()
				if err != nil {
					failed = err
				}
				if err != nil || !st.IsRetry() {
					return
				}
			}
		})
		if failed != nil {
			t.Fatalf("%s: %v", name, failed)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per post, want 0", name, allocs)
		}
		// Drain between measurements: deliver and recycle what was posted.
		for i := 0; i < 64; i++ {
			rt0.Progress()
			rt1.Progress()
		}
	}

	check("PostAM 8 B with WithTag", func() (Status, error) {
		return rt0.PostAM(1, buf, handler, WithTag(7))
	})
	check("inject PostSend with WithContext and WithDevice", func() (Status, error) {
		return rt0.PostSend(1, buf, 3, nil, WithContext(5), WithDevice(dev))
	})
	check("PostPut with WithRemoteComp", func() (Status, error) {
		return rt0.PostPut(1, buf, 4, rkey, 0, nil, WithRemoteComp(putTarget))
	})
	if fired == 0 {
		t.Error("no active message reached its handler")
	}

	// Match the unexpected sends so the receiver quiesces cleanly.
	cq := comp.NewQueue()
	for i := 0; i < runs+3; i++ {
		if _, err := rt1.PostRecv(0, make([]byte, 8), 3, cq); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		rt1.Progress()
	}
}

// TestTwoSidedAllocatesNothing: a completed send/receive pair allocates
// nothing once the runtime is warm — inject (8 B), eager (4 KiB) and
// rendezvous (MaxEager()+1) sends, each with its receive posted before
// the send and after the send has arrived, driven through Progress with
// the completions popped from a CQ on each rank.
func TestTwoSidedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 16
	w := NewWorld(2)
	defer w.Close()
	rt0, err := w.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	rt1, err := w.NewRuntime(1)
	if err != nil {
		t.Fatal(err)
	}
	cq0, cq1 := NewCQ(), NewCQ()
	// post retries a post the provider refused until it is accepted, and
	// reports whether it already completed.
	post := func(p func() (Status, error)) bool {
		for {
			st, err := p()
			if err != nil {
				t.Fatal(err)
			}
			if !st.IsRetry() {
				return st.State == Done
			}
			rt0.Progress()
			rt1.Progress()
		}
	}
	for _, size := range []int{8, 4 << 10, rt0.MaxEager() + 1} {
		src, dst := make([]byte, size), make([]byte, size)
		recv := func() (Status, error) { return rt1.PostRecv(0, dst, 5, cq1) }
		send := func() (Status, error) { return rt0.PostSend(1, src, 5, cq0) }
		for _, recvFirst := range []bool{true, false} {
			pair := func() {
				pending := 0
				if recvFirst && !post(recv) {
					pending++
				}
				if !post(send) {
					pending++
				}
				if !recvFirst {
					// Let the message (or its RTS) arrive unexpected.
					for i := 0; i < 8; i++ {
						rt1.Progress()
					}
					if !post(recv) {
						pending++
					}
				}
				for i := 0; pending > 0; i++ {
					if i == 100_000 {
						t.Fatalf("%d B pair: %d completions missing", size, pending)
					}
					rt0.Progress()
					rt1.Progress()
					for _, cq := range []*CQ{cq0, cq1} {
						if st, ok := cq.Pop(); ok {
							if st.Failed() {
								t.Fatalf("%d B pair: %v", size, st.Err())
							}
							pending--
						}
					}
				}
			}
			for i := 0; i < 4; i++ { // warm up: connections, free lists, seen-set
				pair()
			}
			if allocs := testing.AllocsPerRun(runs, pair); allocs != 0 {
				t.Errorf("%d B send, receive posted first=%v: %.1f allocations per pair, want 0", size, recvFirst, allocs)
			}
		}
	}
}
