// Package bench implements the paper's evaluation harness (§6): the
// message-rate and bandwidth microbenchmarks over LCW (Figures 3–5), the
// individual-resource throughput microbenchmark (Figure 6), and the
// collective, active-message, aggregation and rank-scaling series.
// Every series point is a Workload whose body times one round; Run
// measures Rounds rounds of each and returns one Row per point (declared
// identity, unit, median/min/max rate), the shape BENCH_*.json artifacts
// hold. The testing.B benches at the repository root and the
// cmd/lci-bench executable are thin wrappers around this package.
package bench

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lci"
	"lci/internal/lcw"
	"lci/internal/spin"
)

// MessageRate is the 8-byte AM ping-pong behind Figures 3 and 4 and the
// device and NUMA sweeps, on the job cfg describes: every thread of the
// first half of ranks pairs with the same thread of rank r+Ranks/2, and
// each pair runs iters round trips, counted one way. mode labels the
// series (process, thread-dedicated, thread-shared, multi-device,
// numa-local, numa-worst); the row's identity is the library, platform,
// mode and pair count, plus the device pool size and NUMA domain count
// when cfg sets them. A zero MaxAM becomes 64, so every backend sizes
// its packets for the 8-byte payload and its pre-posted receive window
// stays cache-resident.
func MessageRate(cfg lcw.Config, platform lci.Platform, iters int, mode string) Workload {
	if cfg.MaxAM == 0 {
		cfg.MaxAM = 64
	}
	pairs := cfg.Ranks / 2 * cfg.ThreadsPerRank
	key := fmt.Sprintf("%s %s %s pairs=%d", cfg.Kind, platform.Name, mode, pairs)
	if cfg.Devices > 0 {
		key += fmt.Sprintf(" devices=%d", cfg.Devices)
	}
	if cfg.Topology != nil {
		key += fmt.Sprintf(" domains=%d", cfg.Topology.Domains())
	}
	return workload("Mmsg/s", func() (int64, time.Duration, error) {
		job, err := lcw.NewJob(cfg, platform)
		if err != nil {
			return 0, 0, err
		}
		defer job.Close()
		return int64(pairs) * int64(iters), runPingPong(job, iters), nil
	}, "%s", key)
}

// runPingPong drives 8-byte AM ping-pongs between every thread of the
// job's first half of ranks (initiators) and the same-index thread of
// rank r+Ranks/2 (responders) — the process mode's rank pairs and the
// thread modes' thread pairs alike — and returns the elapsed wall time
// of the communication phase. Each rank's sink counts an arrival for the
// thread index the payload carries, since on shared resources any of the
// rank's threads may be the one whose Progress delivers it.
func runPingPong(job *lcw.Job, iters int) time.Duration {
	cfg := job.Config()
	tpr, half := cfg.ThreadsPerRank, cfg.Ranks/2
	arrived := make([]struct {
		n atomic.Int64
		_ spin.Pad
	}, cfg.Ranks*tpr)
	for r := 0; r < cfg.Ranks; r++ {
		got := arrived[r*tpr : (r+1)*tpr]
		job.Comm(r).SetSink(func(_ int, data []byte) {
			got[binary.LittleEndian.Uint32(data)].n.Add(1)
		})
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := range arrived {
		rank, tid := w/tpr, w%tpr
		th := job.Comm(rank).Thread(tid)
		got := &arrived[w].n
		initiator, peer := rank < half, rank+half
		if !initiator {
			peer = rank - half
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := make([]byte, 8)
			binary.LittleEndian.PutUint32(msg, uint32(tid))
			send := func() {
				for miss := 0; !th.SendAM(peer, msg); miss++ {
					th.Progress()
					if miss&63 == 63 {
						runtime.Gosched() // oversubscription fairness
					}
				}
			}
			recv := func(want int64) {
				for miss := 0; got.Load() < want; miss++ {
					th.Progress()
					if miss&63 == 63 {
						runtime.Gosched()
					}
				}
			}
			<-start
			for i := int64(1); i <= int64(iters); i++ {
				if initiator {
					send()
					recv(i)
				} else {
					recv(i)
					send()
				}
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// BandwidthThread runs Figure 5: two ranks, threads goroutines per rank,
// send-receive ping-pongs of the given size, dedicated or shared
// resources, in GB/s one way. GASNet fails its rounds (no send-receive
// support, as in the paper).
func BandwidthThread(kind lcw.Kind, platform lci.Platform, threads, iters, size int, dedicated bool) Workload {
	mode := "thread-shared"
	if dedicated {
		mode = "thread-dedicated"
	}
	w := workload("GB/s", func() (int64, time.Duration, error) {
		if kind == lcw.GASNET {
			return 0, 0, fmt.Errorf("bench: GASNet LCW has no send-receive support (§6.2)")
		}
		job, err := lcw.NewJob(lcw.Config{Kind: kind, Ranks: 2, ThreadsPerRank: threads, Dedicated: dedicated}, platform)
		if err != nil {
			return 0, 0, err
		}
		defer job.Close()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < 2; r++ {
			for t := 0; t < threads; t++ {
				th := job.Comm(r).Thread(t)
				peer := 1 - r
				out, in := make([]byte, size), make([]byte, size)
				progress := func() { th.Progress() }
				send := func() {
					for !th.Send(peer, out) {
						th.Progress()
					}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := int64(1); i <= int64(iters); i++ {
						for !th.Recv(peer, in) {
							th.Progress()
						}
						if r == 0 { // the initiator sends first
							send()
						}
						spinUntil(progress, func() bool { return th.RecvsDone() >= i })
						if r == 1 {
							send()
						}
					}
					// Drain local send completions so buffers quiesce.
					spinUntil(progress, func() bool { return th.SendsDone() >= int64(iters) })
				}()
			}
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		return int64(threads) * int64(iters) * int64(size), time.Since(t0), nil
	}, "%s %s %s threads=%d size=%d", kind, platform.Name, mode, threads, size)
	w.perUnit = 1e9
	return w
}
