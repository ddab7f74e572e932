package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci/internal/base"
	"lci/internal/comp"
	"lci/internal/fault"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/network"
)

// fnOp is a backlog entry for the queue tests: try runs f, fail counts
// its calls.
type fnOp struct {
	f      func() error
	failed *atomic.Int32
}

func (o fnOp) try(*Device, bool) error { return o.f() }
func (o fnOp) fail(*Device, error)     { o.failed.Add(1) }

// transientFirst returns an op whose first n attempts are refused
// transiently and whose later attempts run then.
func transientFirst(n int32, then func() error) fnOp {
	var attempts atomic.Int32 // an op may run from any drainer
	return fnOp{f: func() error {
		if attempts.Add(1) <= n {
			return network.ErrTxFull
		}
		return then()
	}, failed: new(atomic.Int32)}
}

// park submits op with DisallowRetry semantics and checks that it parked.
func park(t *testing.T, d *Device, op fnOp) {
	t.Helper()
	st, err := submit(d, op, true)
	if err != nil || st.State != base.Posted || st.Reason != base.RetryBacklog {
		t.Fatalf("submit = %+v, %v; want Posted/RetryBacklog", st, err)
	}
}

func TestBacklogDrainFIFO(t *testing.T) {
	rts := newTestRuntime(t, 1)
	defer rts[0].Close()
	d := rts[0].DefaultDevice()
	var order []int
	for i := 0; i < 5; i++ {
		park(t, d, transientFirst(1, func() error { order = append(order, i); return nil }))
	}
	if !d.bqNonEmpty.Load() || d.BacklogLen() != 5 {
		t.Fatalf("backlog with 5 ops: flag %v, len %d", d.bqNonEmpty.Load(), d.BacklogLen())
	}
	if n := d.drainBacklog(); n != 5 {
		t.Fatalf("drain = %d, want 5", n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if d.bqNonEmpty.Load() || d.BacklogLen() != 0 {
		t.Fatal("drained backlog not empty")
	}
}

func TestBacklogDrainStopsAtRetryableAndPreservesOrder(t *testing.T) {
	rts := newTestRuntime(t, 1)
	defer rts[0].Close()
	d := rts[0].DefaultDevice()
	first := transientFirst(3, func() error { return nil }) // submit's try + 2 drains
	park(t, d, first)
	ran := false
	park(t, d, transientFirst(1, func() error { ran = true; return nil }))

	if n := d.drainBacklog(); n != 0 {
		t.Fatalf("first drain = %d, want 0", n)
	}
	if ran {
		t.Fatal("second op ran before the first succeeded (order violated)")
	}
	d.drainBacklog() // attempt 3, still parked
	if n := d.drainBacklog(); n != 2 {
		t.Fatalf("final drain = %d, want 2", n)
	}
	if !ran || d.BacklogLen() != 0 {
		t.Fatalf("ran=%v backlog=%d", ran, d.BacklogLen())
	}
}

// TestBacklogFatalErrorIsReported: a fatal error on a drain fires the
// op's fail exactly once and the drain moves on to the next op.
func TestBacklogFatalErrorIsReported(t *testing.T) {
	rts := newTestRuntime(t, 1)
	defer rts[0].Close()
	d := rts[0].DefaultDevice()
	doomed := transientFirst(1, func() error { return errors.New("fatal") })
	park(t, d, doomed)
	done := false
	park(t, d, transientFirst(1, func() error { done = true; return nil }))
	if n := d.drainBacklog(); n != 2 {
		t.Fatalf("drain = %d, want 2 (fatal op settled, next op ran)", n)
	}
	if !done || doomed.failed.Load() != 1 {
		t.Fatalf("next op ran %v, fatal op failed %d times (want 1)", done, doomed.failed.Load())
	}
}

func TestBacklogEmptyFlag(t *testing.T) {
	rts := newTestRuntime(t, 1)
	defer rts[0].Close()
	d := rts[0].DefaultDevice()
	if d.bqNonEmpty.Load() || d.BacklogLen() != 0 {
		t.Fatal("fresh device backlog not empty")
	}
	if n := d.drainBacklog(); n != 0 {
		t.Fatalf("drain on empty = %d", n)
	}
	// An op that goes out at once never touches the backlog.
	if st, err := submit(d, transientFirst(0, func() error { return nil }), true); err != nil || st.State != base.Done {
		t.Fatalf("submit = %+v, %v; want Done", st, err)
	}
	if d.bqNonEmpty.Load() || d.BacklogLen() != 0 {
		t.Fatal("a submission that went out was parked")
	}
}

// TestBacklogConcurrentDrainManyDevices models the multi-device runtime:
// one backlog per device, each drained by several progress goroutines
// concurrently (any thread may progress any device) while ops keep being
// parked. Every op must succeed exactly once, however the retries
// interleave.
func TestBacklogConcurrentDrainManyDevices(t *testing.T) {
	const devices, opsPerDevice, drainersPerDevice = 4, 400, 2
	rts := newTestRuntimeCfg(t, 1, Config{NumDevices: devices, PacketsPerWorker: 8, PreRecvs: 4})
	defer rts[0].Close()
	var succeeded atomic.Int64
	var wg sync.WaitGroup
	// Pushers park ops that fail a couple of transient rounds first, like
	// posts waiting for TX credits to return.
	for i := 0; i < devices; i++ {
		d := rts[0].Device(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < opsPerDevice; j++ {
				op := transientFirst(2, func() error { succeeded.Add(1); return nil })
				if st, err := submit(d, op, true); err != nil || st.Reason != base.RetryBacklog {
					t.Errorf("submit = %+v, %v", st, err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var drainWG sync.WaitGroup
	for i := 0; i < devices; i++ {
		d := rts[0].Device(i)
		for k := 0; k < drainersPerDevice; k++ {
			drainWG.Add(1)
			go func() {
				defer drainWG.Done()
				for {
					select {
					case <-stop:
						d.drainBacklog() // final sweep after the pushers stop
						return
					default:
						d.drainBacklog()
						runtime.Gosched()
					}
				}
			}()
		}
	}
	wg.Wait()
	const want = devices * opsPerDevice
	deadline := time.Now().Add(20 * time.Second)
	for succeeded.Load() < want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	close(stop)
	drainWG.Wait()
	if got := succeeded.Load(); got != want {
		t.Fatalf("succeeded %d of %d", got, want)
	}
	for i := 0; i < devices; i++ {
		if n := rts[0].Device(i).BacklogLen(); n != 0 {
			t.Errorf("device %d backlog still has %d entries", i, n)
		}
	}
}

// TestPostAllocs pins what a post allocates over its whole cycle — post,
// progress, delivery and completion — with prebuilt Options: nothing, for
// an inject-size AM and for an eager send above inject size whose
// completion rides a recycled sendOp to a receive posted beforehand. The
// receiver's window and the transmit queue are sized so no post retries.
func TestPostAllocs(t *testing.T) {
	fab := fabric.New(fabric.Config{NumRanks: 2})
	be := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1, TxDepth: 512}
	rts := make([]*Runtime, 2)
	for r := range rts {
		rt, err := NewRuntime(be, fab, r, Config{PacketsPerWorker: 512, PreRecvs: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rts[r] = rt
	}
	fired := &atomicCounter{}
	rc := rts[1].RegisterHandler(func(base.Status) { fired.n.Add(1) })
	amOpts := Options{RComp: rc}
	sendOpts := Options{}
	small := make([]byte, 8)
	large := make([]byte, rts[0].Config().InjectSize+1)
	into := make([]byte, len(large))
	sent, recvd := &atomicCounter{}, &atomicCounter{}
	check := func(st base.Status, err error) {
		if err != nil || st.IsRetry() {
			t.Fatalf("post = %+v, %v; the sizing should leave no retries", st, err)
		}
	}
	progressTo := func(done func() bool) {
		for i := 0; !done(); i++ {
			if i == 10_000 {
				t.Fatal("operation never completed")
			}
			rts[0].ProgressAll()
			rts[1].ProgressAll()
		}
	}
	amCycle := func() {
		want := fired.n.Load() + 1
		check(rts[0].PostAM(1, small, 0, sent, amOpts))
		progressTo(func() bool { return fired.n.Load() == want })
	}
	sendCycle := func() {
		want := sent.n.Load() + 1
		check(rts[1].PostRecv(0, into, 0, recvd, Options{}))
		check(rts[0].PostSend(1, large, 0, sent, sendOpts))
		progressTo(func() bool { return sent.n.Load() == want && recvd.n.Load() == want })
	}
	amCycle() // warm the free lists
	sendCycle()
	if n := testing.AllocsPerRun(100, amCycle); n != 0 {
		t.Errorf("8 B PostAM cycle allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, sendCycle); n != 0 {
		t.Errorf("%d B PostSend/PostRecv cycle allocates %.1f times, want 0", len(large), n)
	}
	checkRecordsBalanced(t, rts...)
}

// TestParkedOpsFailOnPeerDeath: a post parked on the backlog (DisallowRetry)
// whose peer dies while it waits must error-complete its completion object
// with ErrPeerDead exactly once when the drain meets the fatal error, and
// every packet must come back to the pool. Rank 0's packet pool is starved
// to exactly its receive window (starve holds the one spare packet until
// the balance check), so packet-carrying posts park on an empty pool; a
// one-deep transmit queue held by a filler put parks the RMA posts.
func TestParkedOpsFailOnPeerDeath(t *testing.T) {
	type world struct {
		rts  []*Runtime
		rkey uint64
		rc   base.RComp
	}
	rows := []struct {
		name string
		post func(w world, c base.Comp) (base.Status, error)
	}{
		{"eager-send", func(w world, c base.Comp) (base.Status, error) {
			return w.rts[0].PostSend(1, make([]byte, w.rts[0].Config().InjectSize+1), 1, c, Options{DisallowRetry: true})
		}},
		{"eager-am-inject", func(w world, c base.Comp) (base.Status, error) {
			return w.rts[0].PostAM(1, make([]byte, 8), 2, c, Options{RComp: w.rc, DisallowRetry: true})
		}},
		{"rendezvous-send", func(w world, c base.Comp) (base.Status, error) {
			return w.rts[0].PostSend(1, make([]byte, w.rts[0].MaxEager()+1), 3, c, Options{DisallowRetry: true})
		}},
		{"put", func(w world, c base.Comp) (base.Status, error) {
			return w.rts[0].PostPut(1, make([]byte, 64), 4, c, Options{Remote: RemoteBuffer{RKey: w.rkey}, RemoteSet: true, DisallowRetry: true})
		}},
		{"get", func(w world, c base.Comp) (base.Status, error) {
			return w.rts[0].PostGet(1, make([]byte, 64), c, Options{Remote: RemoteBuffer{RKey: w.rkey}, RemoteSet: true, DisallowRetry: true})
		}},
	}
	const preRecvs = 4
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			inj := fault.New(uint64(40+i), 2)
			fab := fabric.New(fabric.Config{NumRanks: 2})
			fab.SetInjector(inj)
			be := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1, TxDepth: 1}
			cfgs := []Config{
				{PacketsPerWorker: preRecvs + 1, PreRecvs: preRecvs}, // starved below
				{PacketsPerWorker: 64, PreRecvs: 8},
			}
			var w world
			for r := range cfgs {
				rt, err := NewRuntime(be, fab, r, cfgs[r])
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				w.rts = append(w.rts, rt)
			}
			spare := starve(t, w.rts[0])
			rkey, _ := w.rts[1].RegisterMemory(nil, make([]byte, 64))
			w.rkey = rkey
			w.rc = w.rts[1].RegisterHandler(func(base.Status) {})
			if _, err := w.rts[0].PostPut(1, make([]byte, 8), 0, nil, Options{Remote: RemoteBuffer{RKey: rkey}, RemoteSet: true}); err != nil {
				t.Fatal(err)
			}

			c := &comp.Counter{}
			st, err := row.post(w, c)
			if err != nil || st.State != base.Posted || st.Reason != base.RetryBacklog {
				t.Fatalf("post = %+v, %v; want it parked (Posted/RetryBacklog)", st, err)
			}
			inj.KillRank(1)
			// The pool stays starved: a parked packet post must fail on
			// the dead peer without waiting for a packet.
			pool := w.rts[0].Pool()
			d := w.rts[0].DefaultDevice()
			for r := 0; r < 10_000 && (c.Load() == 0 || d.BacklogLen() > 0); r++ {
				w.rts[0].ProgressAll()
			}
			for r := 0; r < 100; r++ { // let a second fire show up, if there is one
				w.rts[0].ProgressAll()
			}
			if c.Load() != 1 || !errors.Is(c.Err(), ErrPeerDead) {
				t.Fatalf("completion: n=%d err=%v, want 1 × ErrPeerDead", c.Load(), c.Err())
			}
			if n := d.BacklogLen(); n != 0 {
				t.Fatalf("backlog still holds %d entries", n)
			}
			d.worker.Put(spare)
			if got, want := pool.Available(), int(pool.Allocated())-preRecvs; got != want {
				t.Fatalf("packet pool: %d available, want %d (allocated less the receive window)", got, want)
			}
			checkRecordsBalanced(t, w.rts...)
		})
	}
}
