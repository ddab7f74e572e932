package lcw_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci"
	"lci/internal/lcw"
)

// testDeadline bounds one communication phase. Generous versus the
// milliseconds a healthy run takes, small enough that a livelocked
// configuration fails the suite instead of hanging it.
const testDeadline = 10 * time.Second

// backend is one row of the all-backends table: a library in one of the
// resource modes it supports.
type backend struct {
	kind      lcw.Kind
	dedicated bool
}

func (b backend) String() string { return fmt.Sprintf("%s/dedicated=%v", b.kind, b.dedicated) }

var allBackends = []backend{
	{lcw.LCI, true},
	{lcw.LCI, false},
	{lcw.MPI, false},
	{lcw.MPIX, true},
	{lcw.GASNET, false},
}

func newJob(t *testing.T, cfg lcw.Config, platform lci.Platform) *lcw.Job {
	t.Helper()
	job, err := lcw.NewJob(cfg, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { job.Close() })
	return job
}

// progressUntil progresses h until done holds, yielding to the scheduler
// on misses: on a single-core runner an unyielding spin burns a whole
// preemption quantum (~10ms) per handoff and turns a millisecond test
// into minutes. The deadline is checked only every few hundred misses —
// time.Now per poll would dominate the loop.
func progressUntil(h lcw.Thread, deadline time.Time, done func() bool) bool {
	for miss := 0; !done(); miss++ {
		if h.Progress() == 0 && miss&15 == 15 {
			runtime.Gosched()
		}
		if miss&255 == 255 && time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// pingPongOnce runs a tiny AM ping-pong across every thread pair of a
// freshly built job and verifies payload integrity. Payloads carry the
// addressee's thread index, by which each rank's sink counts arrivals.
func pingPongOnce(t *testing.T, cfg lcw.Config, platform lci.Platform) {
	t.Helper()
	job := newJob(t, cfg, platform)

	iters := 50
	if testing.Short() {
		iters = 10
	}
	var bad atomic.Int64
	got := make([][]atomic.Int64, 2)
	for r := 0; r < 2; r++ {
		got[r] = make([]atomic.Int64, cfg.ThreadsPerRank)
		job.Comm(r).SetSink(func(src int, data []byte) {
			tid := int(data[0])
			if src != 1-r || string(data[1:]) != fmt.Sprintf("r%dt%d", src, tid) {
				bad.Add(1)
			}
			got[r][tid].Add(1)
		})
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2*cfg.ThreadsPerRank)
	deadline := time.Now().Add(testDeadline)
	for r := 0; r < 2; r++ {
		for th := 0; th < cfg.ThreadsPerRank; th++ {
			wg.Add(1)
			go func(rank, tid int) {
				defer wg.Done()
				h := job.Comm(rank).Thread(tid)
				peer := 1 - rank
				msg := append([]byte{byte(tid)}, fmt.Sprintf("r%dt%d", rank, tid)...)
				for i := 0; i < iters; i++ {
					if rank == 0 {
						lcw.Send(h, peer, msg)
					}
					if !progressUntil(h, deadline, func() bool { return got[rank][tid].Load() > int64(i) }) {
						errCh <- fmt.Errorf("rank%d thread %d timed out at iter %d", rank, tid, i)
						return
					}
					if rank == 1 {
						lcw.Send(h, peer, msg)
					}
				}
			}(r, th)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d corrupt or misrouted payloads", n)
	}
}

func TestAMPingPongAllBackends(t *testing.T) {
	for _, plat := range lci.Platforms() {
		for _, b := range allBackends {
			t.Run(plat.Name+"/"+b.String(), func(t *testing.T) {
				pingPongOnce(t, lcw.Config{
					Kind: b.kind, Ranks: 2, ThreadsPerRank: 4, Dedicated: b.dedicated,
				}, plat)
			})
		}
	}
}

// TestSendRoundTripAllBackends floods blocking-style sends in both
// directions from two threads per rank (no ping-pong pairing) and
// verifies that every payload reaches the peer's sink intact, at a small
// payload and at a MaxAM raised to 64 KiB packets (the AMT's large-grid
// faces), where the LCI packet pool must still cover its receive window.
func TestSendRoundTripAllBackends(t *testing.T) {
	const threads, msgs = 2, 40
	for _, size := range []int{24, 60_000} {
		for _, b := range allBackends {
			cfg := lcw.Config{Kind: b.kind, Ranks: 2, ThreadsPerRank: threads, Dedicated: b.dedicated}
			name := b.String()
			if size > lcw.DefaultMaxAM {
				cfg.MaxAM, cfg.PreRecvs = size, 64
				name += fmt.Sprintf("/maxam=%d", size)
			}
			t.Run(name, func(t *testing.T) {
				job := newJob(t, cfg, lci.SimExpanse())
				var got, bad [2]atomic.Int64
				for r := 0; r < 2; r++ {
					job.Comm(r).SetSink(func(src int, payload []byte) {
						if src != 1-r || len(payload) != size || payload[0] != byte('A'+1-r) {
							bad[r].Add(1)
						}
						got[r].Add(1)
					})
				}
				deadline := time.Now().Add(testDeadline)
				var wg sync.WaitGroup
				errCh := make(chan error, 2*threads)
				for r := 0; r < 2; r++ {
					for tid := 0; tid < threads; tid++ {
						wg.Add(1)
						go func(r, tid int) {
							defer wg.Done()
							h := job.Comm(r).Thread(tid)
							payload := make([]byte, size)
							payload[0] = byte('A' + r)
							for i := 0; i < msgs/threads; i++ {
								// lcw.Send's loop, bounded: a starved
								// backend fails the test instead of hanging it.
								for !h.SendAM(1-r, payload) {
									h.Progress()
									if time.Now().After(deadline) {
										errCh <- fmt.Errorf("rank %d thread %d: send %d never accepted", r, tid, i)
										return
									}
								}
								h.Progress()
							}
							// Progress until both directions drain: an arrival
							// lands in the same-index thread's resources.
							progressUntil(h, deadline, func() bool { return got[0].Load() >= msgs && got[1].Load() >= msgs })
						}(r, tid)
					}
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Fatal(err)
				}
				for r := 0; r < 2; r++ {
					if got[r].Load() != msgs {
						t.Errorf("rank %d delivered %d of %d payloads", r, got[r].Load(), msgs)
					}
					if bad[r].Load() != 0 {
						t.Errorf("rank %d saw %d corrupt payloads", r, bad[r].Load())
					}
				}
			})
		}
	}
}

// progressAll progresses every thread of every rank until done holds or
// the deadline passes; the caller owns all thread handles.
func progressAll(job *lcw.Job, done func() bool) {
	deadline := time.Now().Add(testDeadline)
	cfg := job.Config()
	for !done() && time.Now().Before(deadline) {
		n := 0
		for r := 0; r < cfg.Ranks; r++ {
			for tid := 0; tid < cfg.ThreadsPerRank; tid++ {
				n += job.Comm(r).Thread(tid).Progress()
			}
		}
		if n == 0 {
			runtime.Gosched()
		}
	}
}

// TestRecordsAllBackends drives the aggregated record path (native
// internal/agg on LCI, the generic coalescer elsewhere) on every backend:
// many small records in both directions interleaved with raw control
// sends, an explicit FlushRecords before the control message that counts
// on them having been sent, and a drain loop verifying nothing is lost,
// corrupt, or misrouted between the two sinks.
func TestRecordsAllBackends(t *testing.T) {
	const threads = 2
	const recs = 600 // per rank; divisible by threads
	const ctrlKind = 0x01
	for _, b := range allBackends {
		t.Run(b.String(), func(t *testing.T) {
			job := newJob(t, lcw.Config{Kind: b.kind, Ranks: 2, ThreadsPerRank: threads, Dedicated: b.dedicated}, lci.SimExpanse())
			var gotRecs, badRecs, gotCtrl [2]atomic.Int64
			rss := make([]lcw.RecordSender, 2)
			for r := 0; r < 2; r++ {
				rss[r] = lcw.Records(job.Comm(r), 256,
					func(src int, rec []byte) {
						if src != 1-r || len(rec) != 6 || rec[0] != byte('A'+1-r) {
							badRecs[r].Add(1)
						}
						gotRecs[r].Add(1)
					},
					func(src int, payload []byte) {
						if src != 1-r || len(payload) != 1 || payload[0] != ctrlKind {
							badRecs[r].Add(1)
						}
						gotCtrl[r].Add(1)
					})
			}

			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func(r, tid int) {
						defer wg.Done()
						rec := make([]byte, 6)
						rec[0] = byte('A' + r)
						for i := 0; i < recs/threads; i++ {
							binary.LittleEndian.PutUint32(rec[1:5], uint32(i))
							rss[r].SendRecord(1-r, rec, tid)
							if i%64 == 0 {
								job.Comm(r).Thread(tid).Progress()
							}
						}
					}(r, tid)
				}
			}
			wg.Wait()
			for r := 0; r < 2; r++ {
				rss[r].FlushRecords(0)
				lcw.Send(job.Comm(r).Thread(0), 1-r, []byte{ctrlKind})
			}
			progressAll(job, func() bool {
				return gotRecs[0].Load() >= recs && gotRecs[1].Load() >= recs &&
					gotCtrl[0].Load() >= 1 && gotCtrl[1].Load() >= 1
			})

			for r := 0; r < 2; r++ {
				if gotRecs[r].Load() != recs {
					t.Errorf("rank %d delivered %d of %d records", r, gotRecs[r].Load(), recs)
				}
				if gotCtrl[r].Load() != 1 {
					t.Errorf("rank %d delivered %d of 1 control payloads", r, gotCtrl[r].Load())
				}
				if badRecs[r].Load() != 0 {
					t.Errorf("rank %d saw %d corrupt or misrouted deliveries", r, badRecs[r].Load())
				}
			}
		})
	}
}

// TestRecordsBatchFitsTransport: the generic coalescer clamps its batches
// to MaxAM, so an 8 KiB aggregation size — above the default MaxAM of
// 8128 bytes and GASNet's 8184-byte medium AM — still delivers every
// record.
func TestRecordsBatchFitsTransport(t *testing.T) {
	for _, kind := range []lcw.Kind{lcw.GASNET, lcw.MPI} {
		t.Run(kind.String(), func(t *testing.T) {
			job := newJob(t, lcw.Config{Kind: kind, Ranks: 2, ThreadsPerRank: 1}, lci.SimExpanse())
			const recs, recLen = 1000, 61 // 130 frames + magic = 8191 B
			var got, bad atomic.Int64
			ignore := func(int, []byte) {}
			rs := lcw.Records(job.Comm(0), 8192, ignore, ignore)
			lcw.Records(job.Comm(1), 8192, func(src int, rec []byte) {
				if src != 0 || len(rec) != recLen || rec[0] != 0xCC {
					bad.Add(1)
				}
				got.Add(1)
			}, ignore)
			rec := make([]byte, recLen)
			rec[0] = 0xCC
			for i := 0; i < recs; i++ {
				rs.SendRecord(1, rec, 0)
				if i%16 == 0 {
					job.Comm(1).Thread(0).Progress()
				}
			}
			rs.FlushRecords(0)
			progressAll(job, func() bool { return got.Load() >= recs })
			if got.Load() != recs || bad.Load() != 0 {
				t.Fatalf("delivered %d of %d records (%d corrupt)", got.Load(), recs, bad.Load())
			}
		})
	}
}

// TestMPIRejectsOversizeAM pins the MPI backend's payload ceiling: its
// pre-posted receives hold MaxAM bytes, so a larger AM is a caller bug.
func TestMPIRejectsOversizeAM(t *testing.T) {
	job := newJob(t, lcw.Config{Kind: lcw.MPI, Ranks: 2, ThreadsPerRank: 1}, lci.SimExpanse())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized payload")
		}
	}()
	job.Comm(0).Thread(0).SendAM(1, make([]byte, job.Comm(0).MaxAM()+1))
}

func TestSendRecvBackends(t *testing.T) {
	sizes := []int{8, 4096, 65536}
	if testing.Short() {
		sizes = []int{8, 65536} // keep one eager and one rendezvous size
	}
	for _, b := range allBackends {
		if b.kind == lcw.GASNET {
			continue // no send-recv (§6.2)
		}
		for _, size := range sizes {
			t.Run(fmt.Sprintf("%s/size=%d", b, size), func(t *testing.T) {
				job := newJob(t, lcw.Config{
					Kind: b.kind, Ranks: 2, ThreadsPerRank: 2, Dedicated: b.dedicated,
				}, lci.SimExpanse())

				iters := 20
				if testing.Short() {
					iters = 5
				}
				var wg sync.WaitGroup
				errCh := make(chan error, 4)
				for r := 0; r < 2; r++ {
					for tid := 0; tid < 2; tid++ {
						wg.Add(1)
						go func(rank, tid int) {
							defer wg.Done()
							h := job.Comm(rank).Thread(tid)
							peer := 1 - rank
							out := make([]byte, size)
							for i := range out {
								out[i] = byte(rank*3 + tid*7 + i)
							}
							in := make([]byte, size)
							deadline := time.Now().Add(testDeadline)
							for i := 0; i < iters; i++ {
								for !h.Recv(peer, in) {
									h.Progress()
								}
								for !h.Send(peer, out) {
									h.Progress()
								}
								if !progressUntil(h, deadline, func() bool { return h.RecvsDone() > int64(i) }) {
									errCh <- fmt.Errorf("rank %d thread %d stuck at iter %d", rank, tid, i)
									return
								}
								want := make([]byte, size)
								for k := range want {
									want[k] = byte(peer*3 + tid*7 + k)
								}
								if !bytes.Equal(in, want) {
									errCh <- fmt.Errorf("rank %d thread %d iter %d payload mismatch", rank, tid, i)
									return
								}
							}
							progressUntil(h, deadline, func() bool { return h.SendsDone() >= int64(iters) })
						}(r, tid)
					}
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGASNetRejectsDedicated(t *testing.T) {
	_, err := lcw.NewJob(lcw.Config{Kind: lcw.GASNET, Ranks: 2, ThreadsPerRank: 2, Dedicated: true}, lci.SimExpanse())
	if err == nil {
		t.Fatal("expected error: GASNet has no dedicated-resource mode")
	}
}

// TestLCIDevicesKnob: the explicit device-pool knob — threads share pool
// devices t % Devices — must carry correct AM traffic at every pool size,
// and is rejected for backends without a device pool.
func TestLCIDevicesKnob(t *testing.T) {
	for _, devices := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("devices=%d", devices), func(t *testing.T) {
			pingPongOnce(t, lcw.Config{
				Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: 4, Devices: devices,
			}, lci.SimExpanse())
		})
	}
	if _, err := lcw.NewJob(lcw.Config{Kind: lcw.MPI, Ranks: 2, ThreadsPerRank: 2, Devices: 2}, lci.SimExpanse()); err == nil {
		t.Fatal("expected error: Devices knob is LCI-only")
	}
	if _, err := lcw.NewJob(lcw.Config{Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: 2, Devices: 4}, lci.SimExpanse()); err == nil {
		t.Fatal("expected error: more devices than threads")
	}
}

// TestLCITopologyKnob: with a synthetic topology attached, AM traffic
// must stay correct under both the locality-aware and the worst-case
// placement (the two layouts the NUMA gate compares), and the knob is
// rejected for backends without a placement policy.
func TestLCITopologyKnob(t *testing.T) {
	tp := lci.TopoUniform(2, 2)
	for _, tc := range []struct {
		name  string
		place lci.Placement
	}{
		{"local", lci.PlaceLocal},
		{"worst", lci.PlaceWorst},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pingPongOnce(t, lcw.Config{
				Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: 4, Devices: 4,
				Topology: tp, Placement: tc.place,
			}, lci.SimExpanse())
		})
	}
	if _, err := lcw.NewJob(lcw.Config{Kind: lcw.MPI, Ranks: 2, ThreadsPerRank: 2, Topology: tp}, lci.SimExpanse()); err == nil {
		t.Fatal("expected error: Topology knob is LCI-only")
	}
	if _, err := lcw.NewJob(lcw.Config{Kind: lcw.MPI, Ranks: 2, ThreadsPerRank: 2, Placement: lci.PlaceWorst}, lci.SimExpanse()); err == nil {
		t.Fatal("expected error: Placement knob is LCI-only")
	}
	if _, err := lcw.NewJob(lcw.Config{Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: 2, Placement: lci.PlaceWorst}, lci.SimExpanse()); err == nil {
		t.Fatal("expected error: Placement without Topology is silently inert")
	}
	// More threads than topology cores: virtual cores wrap (threads 4-7
	// reuse cores 0-3) so every thread keeps a resolved domain and the
	// job still carries correct traffic.
	t.Run("threads-oversubscribe-cores", func(t *testing.T) {
		pingPongOnce(t, lcw.Config{
			Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: 8, Devices: 4,
			Topology: lci.TopoUniform(2, 2), Placement: lci.PlaceLocal,
		}, lci.SimExpanse())
	})
}
