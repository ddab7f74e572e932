package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFlagsDefaults(t *testing.T) {
	tel := New(Config{})
	if !tel.Counting() || !tel.Timing() {
		t.Fatal("counters and histograms must default on")
	}
	if tel.Tracing() {
		t.Fatal("trace must default off")
	}
	tel = New(Config{Disable: true, Trace: true})
	if tel.Counting() || tel.Timing() {
		t.Fatal("Disable must start counters and histograms off")
	}
	if !tel.Tracing() {
		t.Fatal("Trace must start the ring on")
	}
	tel.Enable(FlagCounters)
	if !tel.Counting() {
		t.Fatal("runtime re-enable failed")
	}
	tel.Disable(FlagTrace)
	if tel.Tracing() {
		t.Fatal("runtime disable failed")
	}
}

func TestSnapshotStructure(t *testing.T) {
	tel := New(Config{})
	var dc DeviceCounters
	tel.RegisterDevice(0, &dc, func() DeviceGauges {
		return DeviceGauges{Net: NetSnap{Msgs: 7}, ConnectedPeers: 3, BacklogLen: 1}
	})
	tel.RegisterPool(func() PoolSnap { return PoolSnap{Gets: 5, Allocated: 10} })
	// Two aggregators' readers: the snapshot reports their sum.
	tel.RegisterAgg(func() AggSnap { return AggSnap{Appends: 4, FlushSize: 1, QueuedBytes: 40} })
	tel.RegisterAgg(func() AggSnap { return AggSnap{Appends: 5, QueuedBytes: 2} })
	dc.PostInline.Add(2)
	dc.MatchHits.Add(1)
	tel.PostLatency().Record(100)

	s := tel.Snapshot()
	if s.Empty() {
		t.Fatal("snapshot with traffic reported Empty")
	}
	if got := s.Total().PostInline; got != 2 {
		t.Fatalf("total PostInline = %d", got)
	}
	if s.Devices[0].Gauges.ConnectedPeers != 3 || s.Pool.Gets != 5 ||
		s.Agg.Appends != 9 || s.Agg.FlushSize != 1 || s.Agg.QueuedBytes != 42 {
		t.Fatalf("snapshot lost layer data: %+v", s)
	}
	// Diffability: a second snapshot over a quiet interval diffs to zero
	// counters while gauges keep the newer reading.
	diff := tel.Snapshot().Sub(s)
	if diff.Total() != (DeviceCountersSnap{}) || diff.Pool.Gets != 0 || diff.Agg.Appends != 0 {
		t.Fatalf("quiet-interval diff not zero: %+v", diff)
	}
	if diff.Pool.Allocated != 10 || diff.Devices[0].Gauges.ConnectedPeers != 3 || diff.Agg.QueuedBytes != 42 {
		t.Fatal("gauges must survive Sub")
	}
	// The snapshot must marshal (the expvar surface) and render.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if txt := s.String(); !strings.Contains(txt, "inline=2") || !strings.Contains(txt, "appends=9") ||
		!strings.Contains(txt, "queued-bytes=42") {
		t.Fatalf("text dump missing layers:\n%s", txt)
	}
	if v, ok := tel.Expvar()().(Snapshot); !ok || v.Empty() {
		t.Fatal("Expvar adapter did not return a live snapshot")
	}
}

// TestSnapshotUnderConcurrentBumps hammers every counter family from
// eight goroutines while snapshotting continuously. Under -race this is
// the per-field-atomic-load tearing fix's regression test; without it,
// the final snapshot must balance exactly once writers stop.
func TestSnapshotUnderConcurrentBumps(t *testing.T) {
	tel := New(Config{})
	const devices = 4
	counters := make([]*DeviceCounters, devices)
	for i := range counters {
		counters[i] = &DeviceCounters{}
		tel.RegisterDevice(i, counters[i], nil)
	}
	const writers = 8
	const perWriter = 20000
	// Each writer bumps its own slot, summed by a registered reader the
	// way an aggregator sums its shards.
	var appends [writers]struct {
		n atomic.Int64
		_ [56]byte
	}
	tel.RegisterAgg(func() AggSnap {
		var s AggSnap
		for i := range appends {
			s.Appends += appends[i].n.Load()
		}
		return s
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := tel.Snapshot()
				tot := s.Total()
				// Monotonic per-counter reads: no negative value can ever
				// appear no matter how the loads interleave with writers.
				if tot.PostInline < 0 || tot.Completions < 0 {
					panic("torn counter read")
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := counters[w%devices]
			for i := 0; i < perWriter; i++ {
				c.PostInline.Add(1)
				c.Completions.Add(1)
				appends[w].n.Add(1)
				tel.PostLatency().Record(int64(i&1023) + 1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	final := tel.Snapshot()
	tot := final.Total()
	want := int64(writers * perWriter)
	if tot.PostInline != want || tot.Completions != want || final.Agg.Appends != want {
		t.Fatalf("final counters = %d/%d/%d, want %d", tot.PostInline, tot.Completions, final.Agg.Appends, want)
	}
	if got := tel.Snapshot().PostLatency.Count; got != want {
		t.Fatalf("hist count = %d, want %d", got, want)
	}
}

func TestNoteRetry(t *testing.T) {
	var c DeviceCounters
	c.NoteRetry(true, false)
	c.NoteRetry(false, true)
	c.NoteRetry(false, false)
	s := c.Snap()
	if s.RetryPacketPool != 1 || s.RetryTxFull != 1 || s.RetryLockBusy != 1 {
		t.Fatalf("retry classification wrong: %+v", s)
	}
}
