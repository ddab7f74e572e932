// Package bench implements the paper's evaluation harness (§6): the
// message-rate and bandwidth microbenchmarks over LCW (Figures 3–5) and
// the individual-resource throughput microbenchmark (Figure 6). The
// testing.B benches at the repository root and the cmd/lci-bench and
// cmd/lci-resources executables are thin wrappers around this package.
package bench

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lci"
	"lci/internal/core"
	"lci/internal/lcw"
	"lci/internal/spin"
	"lci/internal/topo"
)

// RateResult is one point of a message-rate series.
type RateResult struct {
	Library  string  // lci, mpi, mpix, gasnet
	Platform string  // SimExpanse / SimDelta
	Mode     string  // process / thread-dedicated / thread-shared / multi-device / numa-*
	Pairs    int     // communicating pairs (processes or threads per side)
	Devices  int     `json:",omitempty"` // LCI device-pool size (multi-device mode)
	Domains  int     `json:",omitempty"` // NUMA domain count (locality mode)
	Msgs     int64   // unidirectional messages counted
	Seconds  float64 // wall time
	RateMps  float64 // million messages per second (unidirectional)
}

func (r RateResult) String() string {
	if r.Devices > 0 {
		return fmt.Sprintf("%-7s %-11s %-16s pairs=%-4d devices=%-2d rate=%8.3f Mmsg/s",
			r.Library, r.Platform, r.Mode, r.Pairs, r.Devices, r.RateMps)
	}
	return fmt.Sprintf("%-7s %-11s %-16s pairs=%-4d rate=%8.3f Mmsg/s",
		r.Library, r.Platform, r.Mode, r.Pairs, r.RateMps)
}

// BWResult is one point of a bandwidth series.
type BWResult struct {
	Library  string
	Platform string
	Mode     string
	Threads  int
	Size     int
	Bytes    int64
	Seconds  float64
	GBps     float64 // unidirectional GB/s
}

func (r BWResult) String() string {
	return fmt.Sprintf("%-7s %-11s %-16s threads=%-3d size=%-8d bw=%8.3f GB/s",
		r.Library, r.Platform, r.Mode, r.Threads, r.Size, r.GBps)
}

// MessageRateProcess runs the process-based mode of Figure 3: pairs
// single-threaded ranks per "node" (2*pairs ranks total), 8-byte AM
// ping-pongs, iters per pair. Rank i pairs with rank i+pairs.
func MessageRateProcess(kind lcw.Kind, platform lci.Platform, pairs, iters int) (RateResult, error) {
	// 8-byte payloads: size packets accordingly so the pre-posted receive
	// window stays cache-resident (every backend gets the same sizing).
	cfg := lcw.Config{Kind: kind, Ranks: 2 * pairs, ThreadsPerRank: 1, MaxAM: 64}
	job, err := lcw.NewJob(cfg, platform)
	if err != nil {
		return RateResult{}, err
	}
	defer job.Close()

	elapsed := runPingPong(job, iters)

	msgs := int64(pairs) * int64(iters)
	return RateResult{
		Library: kind.String(), Platform: platform.Name, Mode: "process",
		Pairs: pairs, Msgs: msgs, Seconds: elapsed.Seconds(),
		RateMps: float64(msgs) / elapsed.Seconds() / 1e6,
	}, nil
}

// MessageRateThread runs the thread-based modes of Figure 4: two ranks
// ("one process per node"), threads goroutines per rank, 8-byte AM
// ping-pongs, dedicated or shared resources.
func MessageRateThread(kind lcw.Kind, platform lci.Platform, threads, iters int, dedicated bool) (RateResult, error) {
	cfg := lcw.Config{Kind: kind, Ranks: 2, ThreadsPerRank: threads, Dedicated: dedicated, MaxAM: 64}
	job, err := lcw.NewJob(cfg, platform)
	if err != nil {
		return RateResult{}, err
	}
	defer job.Close()

	elapsed := runPingPong(job, iters)

	mode := "thread-shared"
	if dedicated {
		mode = "thread-dedicated"
	}
	msgs := int64(threads) * int64(iters)
	return RateResult{
		Library: kind.String(), Platform: platform.Name, Mode: mode,
		Pairs: threads, Msgs: msgs, Seconds: elapsed.Seconds(),
		RateMps: float64(msgs) / elapsed.Seconds() / 1e6,
	}, nil
}

// MessageRateDevices runs the device-scaling mode: two ranks, threads
// goroutines per rank, 8-byte AM ping-pongs, with the LCI device pool
// sized to devices — thread t pins to device t % devices. devices == 1 is
// the fully shared mode; devices == threads is the fully dedicated mode;
// intermediate values measure how message rate scales as injection and
// progress parallelize across the pool (the paper's multi-device lever).
func MessageRateDevices(platform lci.Platform, threads, devices, iters int) (RateResult, error) {
	cfg := lcw.Config{Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: threads, Devices: devices, MaxAM: 64}
	job, err := lcw.NewJob(cfg, platform)
	if err != nil {
		return RateResult{}, err
	}
	defer job.Close()

	elapsed := runPingPong(job, iters)

	msgs := int64(threads) * int64(iters)
	return RateResult{
		Library: lcw.LCI.String(), Platform: platform.Name, Mode: "multi-device",
		Pairs: threads, Devices: devices, Msgs: msgs, Seconds: elapsed.Seconds(),
		RateMps: float64(msgs) / elapsed.Seconds() / 1e6,
	}, nil
}

// MessageRateLocality runs the NUMA-placement mode: two ranks, threads
// goroutines per rank (thread t on virtual core t of the given topology),
// a device pool of `devices` bound to domains by the placement policy,
// 8-byte AM ping-pongs. worst=false measures LocalPlacement (threads on
// same-domain devices); worst=true measures WorstPlacement (every thread
// on the farthest domain's devices), the placement-quality baseline the
// TestNumaPlacementShape gate compares against. The cross-domain penalty
// of the provider simulations is what separates the two.
func MessageRateLocality(platform lci.Platform, t *topo.Topology, threads, devices, iters int, worst bool) (RateResult, error) {
	var place core.Placement = core.LocalPlacement{}
	mode := "numa-local"
	if worst {
		place = core.WorstPlacement{}
		mode = "numa-worst"
	}
	cfg := lcw.Config{
		Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: threads,
		Devices: devices, Topology: t, Placement: place, MaxAM: 64,
	}
	job, err := lcw.NewJob(cfg, platform)
	if err != nil {
		return RateResult{}, err
	}
	defer job.Close()

	elapsed := runPingPong(job, iters)

	msgs := int64(threads) * int64(iters)
	return RateResult{
		Library: lcw.LCI.String(), Platform: platform.Name, Mode: mode,
		Pairs: threads, Devices: devices, Domains: t.Domains(),
		Msgs: msgs, Seconds: elapsed.Seconds(),
		RateMps: float64(msgs) / elapsed.Seconds() / 1e6,
	}, nil
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
// resources. GASNet is rejected (no send-receive support, as in the
// paper).
func BandwidthThread(kind lcw.Kind, platform lci.Platform, threads, iters, size int, dedicated bool) (BWResult, error) {
	if kind == lcw.GASNET {
		return BWResult{}, fmt.Errorf("bench: GASNet LCW has no send-receive support (§6.2)")
	}
	cfg := lcw.Config{Kind: kind, Ranks: 2, ThreadsPerRank: threads, Dedicated: dedicated}
	job, err := lcw.NewJob(cfg, platform)
	if err != nil {
		return BWResult{}, err
	}
	defer job.Close()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 2; r++ {
		for t := 0; t < threads; t++ {
			th := job.Comm(r).Thread(t)
			peer := 1 - r
			initiator := r == 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]byte, size)
				in := make([]byte, size)
				<-start
				for i := 0; i < iters; i++ {
					if initiator {
						for !th.Recv(peer, in) {
							th.Progress()
						}
						for !th.Send(peer, out) {
							th.Progress()
						}
						for miss := 0; th.RecvsDone() < int64(i+1); miss++ {
							th.Progress()
							if miss&63 == 63 {
								runtime.Gosched()
							}
						}
					} else {
						for !th.Recv(peer, in) {
							th.Progress()
						}
						for miss := 0; th.RecvsDone() < int64(i+1); miss++ {
							th.Progress()
							if miss&63 == 63 {
								runtime.Gosched()
							}
						}
						for !th.Send(peer, out) {
							th.Progress()
						}
					}
				}
				// Drain local send completions so buffers quiesce.
				for th.SendsDone() < int64(iters) {
					th.Progress()
				}
			}()
		}
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	mode := "thread-shared"
	if dedicated {
		mode = "thread-dedicated"
	}
	bytes := int64(threads) * int64(iters) * int64(size)
	return BWResult{
		Library: kind.String(), Platform: platform.Name, Mode: mode,
		Threads: threads, Size: size, Bytes: bytes, Seconds: elapsed.Seconds(),
		GBps: float64(bytes) / elapsed.Seconds() / 1e9,
	}, nil
}
