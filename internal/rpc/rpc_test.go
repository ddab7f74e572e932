package rpc_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci"
	"lci/internal/mpibase"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/rpc"
)

const nthreads = 2

// buildTransports constructs one transport per rank for the named backend
// over a fresh 2-rank fabric/world.
func buildTransports(t *testing.T, backend string) []rpc.Transport {
	t.Helper()
	const ranks = 2
	switch backend {
	case "lci":
		world := lci.NewWorld(ranks)
		out := make([]rpc.Transport, ranks)
		for r := 0; r < ranks; r++ {
			rt, err := world.NewRuntime(r)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := rpc.NewLCITransport(rt, nthreads)
			if err != nil {
				t.Fatal(err)
			}
			out[r] = tr
		}
		return out
	case "gasnet":
		fab := fabric.New(fabric.Config{NumRanks: ranks})
		out := make([]rpc.Transport, ranks)
		for r := 0; r < ranks; r++ {
			out[r] = rpc.NewGASNetTransport(nic.NewDomain(fab, r, lci.SimExpanse().Provider))
		}
		return out
	case "mpi", "mpix":
		fab := fabric.New(fabric.Config{NumRanks: ranks})
		numVCIs := 1
		if backend == "mpix" {
			numVCIs = nthreads
		}
		out := make([]rpc.Transport, ranks)
		for r := 0; r < ranks; r++ {
			m := mpibase.New(nic.NewDomain(fab, r, lci.SimExpanse().Provider), mpibase.Config{
				NumVCIs: numVCIs, AssertNoAnyTag: false, AssertAllowOvertaking: true,
			})
			tr, err := rpc.NewMPITransport(m, nthreads, 4096)
			if err != nil {
				t.Fatal(err)
			}
			out[r] = tr
		}
		return out
	default:
		t.Fatalf("unknown backend %q", backend)
		return nil
	}
}

// TestRPCRoundTripAllBackends sends a batch of payloads in both directions
// through every transport backend and verifies delivery and integrity.
func TestRPCRoundTripAllBackends(t *testing.T) {
	for _, backend := range []string{"lci", "gasnet", "mpi", "mpix"} {
		t.Run(backend, func(t *testing.T) {
			trs := buildTransports(t, backend)
			if trs[0].Rank() != 0 || trs[1].Rank() != 1 || trs[0].NumRanks() != 2 {
				t.Fatalf("rank wiring: %d/%d of %d", trs[0].Rank(), trs[1].Rank(), trs[0].NumRanks())
			}

			const msgs = 40
			var got [2]atomic.Int64
			var bad [2]atomic.Int64
			for r := 0; r < 2; r++ {
				r := r
				trs[r].SetSink(func(src int, payload []byte) {
					if src != 1-r || len(payload) != 24 || payload[0] != byte('A'+1-r) {
						bad[r].Add(1)
					}
					got[r].Add(1)
				})
			}

			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				for tid := 0; tid < nthreads; tid++ {
					wg.Add(1)
					go func(r, tid int) {
						defer wg.Done()
						payload := make([]byte, 24)
						payload[0] = byte('A' + r)
						for i := 0; i < msgs/nthreads; i++ {
							trs[r].Send(1-r, payload, tid)
							trs[r].Serve(tid)
						}
						// Serve until both directions drain.
						deadline := time.Now().Add(10 * time.Second)
						for got[0].Load() < msgs || got[1].Load() < msgs {
							trs[r].Serve(tid)
							runtime.Gosched()
							if time.Now().After(deadline) {
								return
							}
						}
					}(r, tid)
				}
			}
			wg.Wait()

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

// TestRecordsAllBackends drives the aggregated record path (native
// internal/agg on LCI, the generic coalescer elsewhere) on every backend:
// many small records in both directions interleaved with raw control
// sends, an explicit FlushRecords before the control message that counts
// on them having been sent, and a drain loop verifying nothing is lost,
// corrupt, or misrouted between the two sinks.
func TestRecordsAllBackends(t *testing.T) {
	for _, backend := range []string{"lci", "gasnet", "mpi", "mpix"} {
		t.Run(backend, func(t *testing.T) {
			trs := buildTransports(t, backend)
			const recs = 600 // per rank; divisible by nthreads
			const ctrlKind = 0x01
			var gotRecs, badRecs, gotCtrl [2]atomic.Int64
			rss := make([]rpc.RecordSender, 2)
			for r := 0; r < 2; r++ {
				r := r
				rss[r] = rpc.Records(trs[r], 256,
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
				for tid := 0; tid < nthreads; tid++ {
					wg.Add(1)
					go func(r, tid int) {
						defer wg.Done()
						rec := make([]byte, 6)
						rec[0] = byte('A' + r)
						for i := 0; i < recs/nthreads; i++ {
							binary.LittleEndian.PutUint32(rec[1:5], uint32(i))
							rss[r].SendRecord(1-r, rec, tid)
							if i%64 == 0 {
								trs[r].Serve(tid)
							}
						}
					}(r, tid)
				}
			}
			wg.Wait()
			for r := 0; r < 2; r++ {
				rss[r].FlushRecords(0)
				trs[r].Send(1-r, []byte{ctrlKind}, 0)
			}

			deadline := time.Now().Add(10 * time.Second)
			for gotRecs[0].Load() < recs || gotRecs[1].Load() < recs ||
				gotCtrl[0].Load() < 1 || gotCtrl[1].Load() < 1 {
				n := 0
				for r := 0; r < 2; r++ {
					for tid := 0; tid < nthreads; tid++ {
						n += trs[r].Serve(tid)
					}
				}
				if n == 0 {
					runtime.Gosched()
				}
				if time.Now().After(deadline) {
					break
				}
			}

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
// to the transport's largest payload, so an 8 KiB aggregation size —
// above GASNet's 8184-byte medium AM and the MPI transport's 4096-byte
// receives here — still delivers every record.
func TestRecordsBatchFitsTransport(t *testing.T) {
	for _, backend := range []string{"gasnet", "mpi"} {
		t.Run(backend, func(t *testing.T) {
			trs := buildTransports(t, backend)
			const recs, recLen = 1000, 61 // 130 frames + magic = 8191 B
			var got, bad atomic.Int64
			ignore := func(int, []byte) {}
			rs := rpc.Records(trs[0], 8192, ignore, ignore)
			rpc.Records(trs[1], 8192, func(src int, rec []byte) {
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
					trs[1].Serve(0)
				}
			}
			rs.FlushRecords(0)
			for deadline := time.Now().Add(10 * time.Second); got.Load() < recs && time.Now().Before(deadline); {
				if trs[1].Serve(0) == 0 {
					trs[0].Serve(0)
					runtime.Gosched()
				}
			}
			if got.Load() != recs || bad.Load() != 0 {
				t.Fatalf("delivered %d of %d records (%d corrupt)", got.Load(), recs, bad.Load())
			}
		})
	}
}

// TestMPITransportRejectsOversize pins the payload ceiling check.
func TestMPITransportRejectsOversize(t *testing.T) {
	trs := buildTransports(t, "mpi")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized payload")
		}
	}()
	trs[0].Send(1, make([]byte, 1<<20), 0)
	_ = fmt.Sprintf // anchor fmt if unused in future edits
}
