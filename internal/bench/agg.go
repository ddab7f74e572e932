package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lci"
	"lci/internal/core"
)

// AggRate measures one-way small-record throughput in million records
// per second (BENCH_agg.json): rank 0 runs `threads`
// producer goroutines each pushing `iters` 16-byte records to rank 1,
// whose `threads` server goroutines progress their devices until every
// record is delivered. The clock runs on rank 0 from the post-barrier
// start to full delivery (the receive counter is shared process memory).
//
// mode selects what is being measured:
//
//   - "naive": one PostAM per record — the per-message NIC cost
//     (doorbell/inject gap, per-packet overheads) the paper's aggregating
//     layers exist to amortize.
//   - "agg": records appended to internal/agg with the default
//     configuration (eager-threshold buffers, device-local homing); one
//     PostAM per flushed batch.
//   - "local" / "cross": as "agg", but with the platform's NUMA topology
//     applied, producers registered at cores spread across the domains,
//     and buffers homed on the device's domain ("local", the default
//     HomeDevice policy) versus the farthest domain from it ("cross",
//     HomeFarthest) — the modeled remote-memory append penalty is the
//     measured difference.
func AggRate(platform lci.Platform, threads, iters int, mode string) Workload {
	return workload("Mrec/s", func() (int64, time.Duration, error) {
		return aggRound(platform, threads, iters, mode)
	}, "%s %s threads=%d", mode, platform.Name, threads)
}

// aggRound times one AggRate round.
func aggRound(platform lci.Platform, threads, iters int, mode string) (int64, time.Duration, error) {
	switch mode {
	case "agg", "naive", "local", "cross":
	default:
		return 0, 0, fmt.Errorf("bench: unknown agg mode %q", mode)
	}
	opts := []lci.WorldOption{
		lci.WithPlatform(platform),
		lci.WithRuntimeConfig(core.Config{NumDevices: threads}),
	}
	homed := mode == "local" || mode == "cross"
	if homed {
		opts = append(opts, lci.WithTopology(platform.NodeTopo))
	}
	w := lci.NewWorld(2, opts...)
	defer w.Close()

	total := int64(threads) * int64(iters)
	var rcvd atomic.Int64
	var done atomic.Bool
	var elapsed time.Duration

	err := w.Launch(func(rt *lci.Runtime) error {
		// Symmetric registration: both ranks register exactly one remote
		// handler (directly, or via the aggregator) in the same order.
		var ag *lci.Aggregator
		var rc lci.RComp
		if mode == "naive" {
			rc = rt.RegisterHandler(func(lci.Status) { rcvd.Add(1) })
		} else {
			homing := lci.AggHomeDevice
			if mode == "cross" {
				homing = lci.AggHomeFarthest
			}
			ag = rt.NewAggregator(func(int, []byte) { rcvd.Add(1) },
				lci.AggConfig{Homing: homing})
		}
		if err := rt.Barrier(); err != nil {
			return err
		}

		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				if rt.Rank() == 1 {
					// Server: progress own device until told to stop. On
					// the aggregated modes polling through the aggregator
					// also drives its epoch, matching real deployments.
					var th *lci.AggThread
					if ag != nil {
						th = ag.ThreadOn(t)
					}
					for miss := 0; !done.Load(); miss++ {
						n := 0
						if ag != nil {
							n = ag.Poll(th)
						} else {
							n = rt.Device(t).Progress()
						}
						if n == 0 && miss&63 == 63 {
							runtime.Gosched()
						}
					}
					return
				}
				rec := make([]byte, 16)
				rec[0] = byte(t)
				if mode == "naive" {
					dev := rt.Device(t)
					for i := 0; i < iters; i++ {
						for {
							st, err := rt.PostAM(1, rec, rc, lci.WithDevice(dev))
							if err != nil {
								panic(err)
							}
							if !st.IsRetry() {
								break
							}
							dev.Progress()
						}
					}
					return
				}
				var th *lci.AggThread
				if homed {
					// Spread producers across the host's cores so every
					// domain appends; the placement policy binds each to a
					// domain-local device and the homing policy decides
					// whether its buffers live there too.
					stride := platform.NodeTopo.NumCores() / threads
					if stride < 1 {
						stride = 1
					}
					th = ag.Thread(rt.RegisterThreadAt(t * stride))
				} else {
					th = ag.ThreadOn(t)
				}
				for i := 0; i < iters; i++ {
					for {
						err := ag.Append(th, 1, rec)
						if err == nil {
							break
						}
						if err != lci.ErrAggBusy {
							panic(err)
						}
						ag.Poll(th)
					}
				}
				ag.Flush(th)
			}(t)
		}

		if rt.Rank() == 0 {
			t0 := time.Now()
			wg.Wait() // all records appended and flushed (or posted)
			for rcvd.Load() < total {
				// Delivery is driven by rank 1's servers; this just waits.
				runtime.Gosched()
			}
			elapsed = time.Since(t0)
			done.Store(true)
		} else {
			wg.Wait()
		}
		return nil
	})
	return total, elapsed, err
}
