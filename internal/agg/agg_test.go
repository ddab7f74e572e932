package agg_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci/internal/agg"
	"lci/internal/core"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/topo"
)

// newRuntimes builds n in-process ranks over one fabric, the core_test
// idiom. Small pools keep the tests honest about resource recycling.
func newRuntimes(t testing.TB, n int, be nic.Config, cfg core.Config) []*core.Runtime {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: n, Topo: cfg.Topology})
	rts := make([]*core.Runtime, n)
	for r := 0; r < n; r++ {
		rt, err := core.NewRuntime(be, fab, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rts[r] = rt
		t.Cleanup(func() { rt.Close() })
	}
	return rts
}

// recSink collects delivered records (copied: the scatter path is
// zero-copy and the slice dies with the packet).
type recSink struct {
	mu   sync.Mutex
	recs [][]byte
	n    atomic.Int64
}

func (s *recSink) sink(src int, rec []byte) {
	s.mu.Lock()
	s.recs = append(s.recs, append([]byte(nil), rec...))
	s.mu.Unlock()
	s.n.Add(1)
}

func TestAggRoundTrip(t *testing.T) {
	rts := newRuntimes(t, 2, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1},
		core.Config{NumDevices: 2, PacketsPerWorker: 64, PreRecvs: 16})
	var got recSink
	cfg := agg.Config{BufBytes: 512}
	ag0 := agg.New(rts[0], func(int, []byte) {}, cfg)
	agg.New(rts[1], got.sink, cfg)

	// Varied record sizes across both device columns, including the
	// boundary sizes: empty, one byte, and the largest that fits.
	var want [][]byte
	ths := []*agg.Thread{ag0.ThreadOn(0), ag0.ThreadOn(1)}
	for i := 0; i < 200; i++ {
		var rec []byte
		switch i % 4 {
		case 0:
			rec = []byte{}
		case 1:
			rec = []byte{byte(i)}
		case 2:
			rec = bytes.Repeat([]byte{byte(i)}, 37)
		case 3:
			rec = bytes.Repeat([]byte{byte(i)}, ag0.MaxRecord())
		}
		want = append(want, rec)
		if err := ag0.AppendWait(ths[i%2], 1, rec); err != nil {
			t.Fatal(err)
		}
	}
	ag0.Flush(ths[0])
	for i := 0; i < 100_000 && got.n.Load() < int64(len(want)); i++ {
		rts[1].ProgressAll()
	}
	if got.n.Load() != int64(len(want)) {
		t.Fatalf("delivered %d of %d records", got.n.Load(), len(want))
	}
	// Multiset equality: batches from different shards may interleave,
	// but every record must arrive intact exactly once.
	count := func(recs [][]byte) map[string]int {
		m := make(map[string]int)
		for _, r := range recs {
			m[string(r)]++
		}
		return m
	}
	got.mu.Lock()
	defer got.mu.Unlock()
	if wantM, gotM := count(want), count(got.recs); fmt.Sprint(wantM) != fmt.Sprint(gotM) {
		t.Fatalf("record multisets differ:\nwant %v\ngot  %v", wantM, gotM)
	}
}

// TestAggSizeFlush: filling a buffer must post it without any explicit
// Flush call (flush-on-size).
func TestAggSizeFlush(t *testing.T) {
	rts := newRuntimes(t, 2, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1},
		core.Config{PacketsPerWorker: 16, PreRecvs: 8})
	var got recSink
	cfg := agg.Config{BufBytes: 64} // 3 x 16-byte records and change
	ag0 := agg.New(rts[0], func(int, []byte) {}, cfg)
	agg.New(rts[1], got.sink, cfg)

	th := ag0.ThreadOn(0)
	rec := bytes.Repeat([]byte{7}, 16)
	for i := 0; i < 10; i++ {
		if err := ag0.AppendWait(th, 1, rec); err != nil {
			t.Fatal(err)
		}
	}
	// 10 records at 18 framed bytes each = at least two full buffers
	// sealed by size alone; serve both sides without flushing.
	for i := 0; i < 100_000 && got.n.Load() < 6; i++ {
		ag0.Poll(th)
		rts[1].ProgressAll()
	}
	if got.n.Load() < 6 {
		t.Fatalf("size flush delivered only %d records", got.n.Load())
	}
}

// TestAggAgeFlush: a lone record must be sealed by the poll-driven age
// timer, with no size trigger and no explicit Flush. The age epoch
// belongs to the buffer's device column: polls through another column
// never age it, and FlushAge polls through its own column seal it — not
// one poll sooner.
func TestAggAgeFlush(t *testing.T) {
	const age = 8
	rts := newRuntimes(t, 2, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1},
		core.Config{NumDevices: 2, PacketsPerWorker: 16, PreRecvs: 8})
	var got recSink
	cfg := agg.Config{BufBytes: 4096, FlushAge: age}
	ag0 := agg.New(rts[0], func(int, []byte) {}, cfg)
	agg.New(rts[1], got.sink, cfg)

	own, other := ag0.ThreadOn(0), ag0.ThreadOn(1)
	if err := ag0.Append(own, 1, []byte("straggler")); err != nil {
		t.Fatal(err)
	}
	sealedByAge := func() int64 { return rts[0].Telemetry().Snapshot().Agg.FlushAge }
	for i := 0; i < 4*age; i++ {
		ag0.Poll(other)
	}
	if n := sealedByAge(); n != 0 || ag0.QueuedBytes() == 0 {
		t.Fatalf("polls of another column sealed the buffer (age seals %d, queued %d)", n, ag0.QueuedBytes())
	}
	for i := 1; i < age; i++ {
		ag0.Poll(own)
	}
	if n := sealedByAge(); n != 0 {
		t.Fatalf("buffer sealed after %d polls of its column, want %d", age-1, age)
	}
	ag0.Poll(own)
	if n := sealedByAge(); n != 1 {
		t.Fatalf("age seals after %d polls of the buffer's column = %d, want 1", age, n)
	}
	for i := 0; i < 100_000 && got.n.Load() == 0; i++ {
		ag0.Poll(own)
		rts[1].ProgressAll()
	}
	if got.n.Load() != 1 {
		t.Fatal("the age-sealed straggler was never delivered")
	}
}

// TestAggCountsExact: the shard-owned counts add up exactly. Producers
// append through two columns of their own and a third column they share;
// afterwards Appends equals the records accepted, the seals by reason sum
// to the batches the receiver's handler fired, and the snapshot's queued
// bytes match QueuedBytes while records are queued.
func TestAggCountsExact(t *testing.T) {
	const producers, perProducer, recBytes = 4, 500, 16
	rts := newRuntimes(t, 2, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1},
		core.Config{NumDevices: 3, PacketsPerWorker: 64, PreRecvs: 16})
	var got recSink
	cfg := agg.Config{BufBytes: 512, FlushAge: 4}
	ag0 := agg.New(rts[0], func(int, []byte) {}, cfg)
	agg.New(rts[1], got.sink, cfg)

	var done atomic.Bool
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		for !done.Load() {
			rts[1].ProgressAll()
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := ag0.ThreadOn(min(p, 2)) // producers 2 and 3 share column 2
			rec := make([]byte, recBytes)
			for i := 0; i < perProducer; i++ {
				rec[0], rec[1] = byte(p), byte(i)
				if err := ag0.AppendWait(th, 1, rec); err != nil {
					panic(err)
				}
				// Column 0 never polls (its buffers seal by size), column 1
				// polls every other append (FlushAge 4: its buffers seal by
				// age long before they fill), the shared column mixes both.
				if p == 1 && i%2 == 1 || p >= 2 && i%8 == 7 {
					ag0.Poll(th)
				}
			}
		}(p)
	}
	wg.Wait()
	th := ag0.ThreadOn(0)
	ag0.Flush(th)
	const extra = 5
	for i := 0; i < extra; i++ {
		if err := ag0.Append(th, 1, make([]byte, recBytes)); err != nil {
			t.Fatal(err)
		}
	}
	q, snapQ := ag0.QueuedBytes(), rts[0].Telemetry().Snapshot().Agg.QueuedBytes
	if want := extra * (agg.FrameOverhead + recBytes); q != want || snapQ != int64(q) {
		t.Fatalf("queued bytes: QueuedBytes %d, snapshot %d, want %d", q, snapQ, want)
	}
	ag0.Flush(th)
	accepted := int64(producers*perProducer + extra)
	for deadline := time.Now().Add(10 * time.Second); got.n.Load() < accepted && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	done.Store(true)
	<-serverDone
	if got.n.Load() != accepted {
		t.Fatalf("delivered %d of %d records", got.n.Load(), accepted)
	}
	s := rts[0].Telemetry().Snapshot().Agg
	if s.Appends != accepted {
		t.Fatalf("Appends = %d, want %d accepted records", s.Appends, accepted)
	}
	batches := rts[1].Telemetry().Snapshot().Total().AMFires
	if seals := s.FlushSize + s.FlushAge + s.FlushExplicit; seals != batches {
		t.Fatalf("seals size %d + age %d + explicit %d = %d, receiver fired %d batches",
			s.FlushSize, s.FlushAge, s.FlushExplicit, seals, batches)
	}
	if s.QueuedBytes != 0 {
		t.Fatalf("snapshot queued bytes after Flush = %d", s.QueuedBytes)
	}
	if s.FlushSize == 0 || s.FlushAge == 0 || s.FlushExplicit == 0 {
		t.Fatalf("want seals of every reason, got %+v", s)
	}
}

func TestAggRecordTooLarge(t *testing.T) {
	rts := newRuntimes(t, 1, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1},
		core.Config{PacketsPerWorker: 8, PreRecvs: 4})
	ag := agg.New(rts[0], func(int, []byte) {}, agg.Config{BufBytes: 64})
	th := ag.ThreadOn(0)
	if err := ag.Append(th, 0, make([]byte, 63)); err != agg.ErrRecordTooLarge {
		t.Fatalf("oversized record: err = %v, want ErrRecordTooLarge", err)
	}
	if got := ag.MaxRecord(); got != 62 {
		t.Fatalf("MaxRecord = %d, want 62", got)
	}
	if err := ag.Append(th, 0, make([]byte, 62)); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
}

// TestAggBackpressureBounded is the backpressure acceptance gate: a
// saturated sender (transmit queue of depth 1, victim rank never served,
// producer never polling) must see ErrBusy instead of unbounded queueing,
// and the aggregator's queued-but-unflushed bytes must stay within the
// constructive bound of BufsPerDest x BufBytes per shard at every step.
// Once the producer is allowed to poll again, everything drains and every
// accepted record is delivered exactly once.
func TestAggBackpressureBounded(t *testing.T) {
	const bufBytes, bufsPerDest = 256, 2
	rts := newRuntimes(t, 2, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1, TxDepth: 1},
		core.Config{PacketsPerWorker: 64, PreRecvs: 32})
	var got recSink
	cfg := agg.Config{BufBytes: bufBytes, BufsPerDest: bufsPerDest}
	ag0 := agg.New(rts[0], func(int, []byte) {}, cfg)
	agg.New(rts[1], got.sink, cfg)

	// One device column, two destination shards: the bound covers both.
	bound := 1 * 2 * bufsPerDest * bufBytes
	th := ag0.ThreadOn(0)
	rec := bytes.Repeat([]byte{3}, 16)
	accepted, busy := 0, 0
	for i := 0; i < 400; i++ {
		err := ag0.Append(th, 1, rec)
		switch err {
		case nil:
			accepted++
		case agg.ErrBusy:
			busy++
		default:
			t.Fatal(err)
		}
		if q := ag0.QueuedBytes(); q > bound {
			t.Fatalf("queued bytes %d exceed the constructive bound %d", q, bound)
		}
	}
	if busy == 0 {
		t.Fatal("saturated sender never saw ErrBusy: backpressure did not engage")
	}
	if accepted == 0 {
		t.Fatal("nothing accepted before saturation")
	}

	// Recovery: polling drains the transmit queue, Flush empties the
	// layer, and the victim finally serves what was accepted.
	ag0.Flush(th)
	for i := 0; i < 100_000 && got.n.Load() < int64(accepted); i++ {
		rts[1].ProgressAll()
		ag0.Poll(th)
	}
	if got.n.Load() != int64(accepted) {
		t.Fatalf("delivered %d of %d accepted records after recovery", got.n.Load(), accepted)
	}
	if q := ag0.QueuedBytes(); q != 0 {
		t.Fatalf("Flush returned with %d queued bytes", q)
	}
}

// TestAggHomingFunctional: both homing policies must deliver identically
// on a multi-domain topology (the perf difference is the shape gate's
// business; this pins correctness).
func TestAggHomingFunctional(t *testing.T) {
	for _, homing := range []agg.Homing{agg.HomeDevice, agg.HomeFarthest} {
		tp := topo.Uniform(2, 4)
		rts := newRuntimes(t, 2, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1, CrossDomainNs: 10},
			core.Config{NumDevices: 2, PacketsPerWorker: 32, PreRecvs: 8, Topology: tp})
		var got recSink
		cfg := agg.Config{BufBytes: 256, Homing: homing, CrossMemNs: 5}
		ag0 := agg.New(rts[0], func(int, []byte) {}, cfg)
		agg.New(rts[1], got.sink, cfg)

		aff := rts[0].RegisterThreadAt(0) // domain 0; local placement pins a domain-0 device
		th := ag0.Thread(aff)
		for i := 0; i < 64; i++ {
			if err := ag0.AppendWait(th, 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		ag0.Flush(th)
		for i := 0; i < 100_000 && got.n.Load() < 64; i++ {
			rts[1].ProgressAll()
		}
		if got.n.Load() != 64 {
			t.Fatalf("homing %v: delivered %d of 64", homing, got.n.Load())
		}
	}
}

// TestAggConcurrentProducers hammers the sharded-lock paths from many
// goroutines across ranks and devices; its real assertions run under the
// CI race job.
func TestAggConcurrentProducers(t *testing.T) {
	const ranks, devs, producers, iters = 3, 2, 4, 300
	rts := newRuntimes(t, ranks, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1},
		core.Config{NumDevices: devs, PacketsPerWorker: 64, PreRecvs: 16})
	sinks := make([]*recSink, ranks)
	ags := make([]*agg.Aggregator, ranks)
	cfg := agg.Config{BufBytes: 512, FlushAge: 16}
	for r := range rts {
		sinks[r] = &recSink{}
		ags[r] = agg.New(rts[r], sinks[r].sink, cfg)
	}

	perDest := int64(producers * iters)
	var wg sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < ranks; r++ {
		// Servers: progress until every rank has its records.
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ths := make([]*agg.Thread, devs)
			for d := range ths {
				ths[d] = ags[r].ThreadOn(d)
			}
			for !done.Load() {
				// Poll every column: pending retries for a producer's
				// column must not die with the producer.
				for _, th := range ths {
					ags[r].Poll(th)
				}
			}
		}(r)
		// Producers: every rank floods both peers from several goroutines.
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(r, p int) {
				defer wg.Done()
				th := ags[r].ThreadOn(p % devs)
				rec := []byte{byte(r), byte(p), 0, 0}
				for i := 0; i < iters; i++ {
					rec[2], rec[3] = byte(i), byte(i>>8)
					for d := 0; d < ranks; d++ {
						if d == r {
							continue
						}
						if err := ags[r].AppendWait(th, d, rec); err != nil {
							panic(err)
						}
					}
					if i%64 == 0 {
						ags[r].Poll(th)
					}
				}
				ags[r].FlushDest(th, (r+1)%ranks)
				ags[r].FlushDest(th, (r+2)%ranks)
			}(r, p)
		}
	}
	// Completion: each rank expects records from ranks-1 peers. The
	// servers drive delivery; producers only flush their own columns, so
	// give stragglers a final Flush from the main goroutine when the
	// producer wave is done.
	go func() {
		for {
			total := int64(0)
			for r := 0; r < ranks; r++ {
				total += sinks[r].n.Load()
			}
			if total == int64(ranks)*int64(ranks-1)*perDest {
				done.Store(true)
				return
			}
			if done.Load() {
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	for r := 0; r < ranks; r++ {
		if n := sinks[r].n.Load(); n != int64(ranks-1)*perDest {
			t.Fatalf("rank %d received %d records, want %d", r, n, int64(ranks-1)*perDest)
		}
	}
}
