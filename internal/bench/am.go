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

// AMResult is one point of the small-AM throughput comparison between the
// first-class handler path and the completion-queue shim it replaced.
type AMResult struct {
	Path     string  // handler / cqshim
	Platform string  // SimExpanse / SimDelta
	Threads  int     // threads per rank (= device-pool size)
	Msgs     int64   // round trips counted
	Seconds  float64 // wall time
	RateMps  float64 // million round trips per second
}

func (r AMResult) String() string {
	return fmt.Sprintf("%-8s %-11s threads=%-3d rate=%8.3f Mrt/s",
		r.Path, r.Platform, r.Threads, r.RateMps)
}

// AMRate measures small-AM ping-pong throughput: two ranks, threads
// goroutines per rank on a threads-sized device pool, 8-byte payloads,
// thread t on its own device with tag t pairing the traffic.
//
// path selects the receive-side serving discipline:
//
//   - "handler": the first-class route. One registered remote handler per
//     rank; the responder's handler posts the reply from inside the
//     poller with prebuilt options and the backlog (no-retry) discipline,
//     so responder threads are pure progress loops and a round trip is
//     served without touching a completion queue.
//   - "cqshim": the dispatch loop the old internal/rpc transport ran
//     before it collapsed onto handler completions. AMs land in one
//     shared completion queue per rank; every thread's serve step is
//     progress + pop + callback dispatch, and replies are posted from
//     thread context with PostAM and per-call variadic options
//     (WithTag, WithDevice) — the per-message costs (status boxing,
//     shared MPMC traffic, payload copy, option allocation) the handler
//     path deletes. A reply lands on the device of whichever responder
//     thread popped the ping, so it can reach any initiator device.
func AMRate(platform lci.Platform, threads, iters int, path string) (AMResult, error) {
	if path != "handler" && path != "cqshim" {
		return AMResult{}, fmt.Errorf("bench: unknown AM path %q", path)
	}
	w := lci.NewWorld(2, lci.WithPlatform(platform),
		lci.WithRuntimeConfig(core.Config{NumDevices: threads}))
	defer w.Close()

	// pongs[t] counts completed round trips for pair t on the initiating
	// rank. Both paths bump it from whatever thread observes the pong —
	// on the shared-queue path that is regularly a different thread.
	pongs := make([]atomic.Int64, threads)
	var done atomic.Bool // initiator finished; responders may stop serving
	// finished counts initiator threads done with their iterations. On the
	// cqshim path a pong can land on any initiator device, so a finished
	// initiator keeps progressing its device until every pair is done; on
	// the handler path pongs return to the pair's own device.
	var finished atomic.Int32
	var elapsed time.Duration

	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		ping := []byte("ping-pay")
		pong := []byte("pong-pay")

		// Registration order is symmetric across ranks, so each rank's
		// handle addresses the peer's target of the same shape.
		var rc lci.RComp
		var cq *lci.CQ
		var sink func(src, tag int)
		switch {
		case path == "handler" && rt.Rank() == 0:
			rc = rt.RegisterHandler(func(st lci.Status) { pongs[st.Tag].Add(1) })
		case path == "handler":
			// Responder: reply from poller context. Options are prebuilt
			// per pair — the handler's own cost is the table lookup, one
			// call, and a backlog-disciplined post.
			replyOpts := make([]core.Options, threads)
			rc = rt.RegisterHandler(func(st lci.Status) {
				if _, err := rt.Core().PostAM(st.Rank, pong, st.Tag, nil, replyOpts[st.Tag]); err != nil {
					panic(err)
				}
			})
			for t := 0; t < threads; t++ {
				replyOpts[t] = core.Options{
					Device: rt.Device(t), RComp: rc, DisallowRetry: true,
				}
			}
		default:
			// cqshim: one shared queue per rank, registered as the remote
			// target; serving goes through a callback pointer like the old
			// transport's sink.
			cq = lci.NewCQ()
			rc = rt.RegisterRComp(cq)
			if rt.Rank() == 0 {
				sink = func(src, tag int) { pongs[tag].Add(1) }
			}
		}
		if err := rt.Barrier(); err != nil {
			return err
		}

		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				dev := rt.Device(t)
				serve := func() {
					dev.Progress()
					if cq == nil {
						return
					}
					for {
						st, ok := cq.Pop()
						if !ok {
							return
						}
						if rt.Rank() == 0 {
							sink(st.Rank, st.Tag)
							continue
						}
						// Reply from thread context, the way the shim's
						// Serve loop did.
						for {
							rst, err := rt.PostAM(st.Rank, pong, rc,
								lci.WithTag(st.Tag), lci.WithDevice(dev))
							if err != nil {
								panic(err)
							}
							if !rst.IsRetry() {
								break
							}
							dev.Progress()
						}
					}
				}
				if rt.Rank() == 0 {
					for i := int64(0); i < int64(iters); i++ {
						for {
							st, err := rt.PostAM(peer, ping, rc,
								lci.WithTag(t), lci.WithDevice(dev))
							if err != nil {
								panic(err)
							}
							if !st.IsRetry() {
								break
							}
							serve()
						}
						for miss := 0; pongs[t].Load() <= i; miss++ {
							serve()
							if miss&63 == 63 {
								runtime.Gosched() // oversubscription fairness
							}
						}
					}
					finished.Add(1)
					for miss := 0; cq != nil && finished.Load() < int32(threads); miss++ {
						serve()
						if miss&63 == 63 {
							runtime.Gosched()
						}
					}
					return
				}
				for miss := 0; !done.Load(); miss++ {
					serve()
					if miss&63 == 63 {
						runtime.Gosched()
					}
				}
			}(t)
		}
		if rt.Rank() == 0 {
			t0 := time.Now()
			wg.Wait()
			elapsed = time.Since(t0)
			done.Store(true)
		} else {
			wg.Wait()
		}
		return nil
	})
	if err != nil {
		return AMResult{}, err
	}

	msgs := int64(threads) * int64(iters)
	return AMResult{
		Path: path, Platform: platform.Name, Threads: threads,
		Msgs: msgs, Seconds: elapsed.Seconds(),
		RateMps: float64(msgs) / elapsed.Seconds() / 1e6,
	}, nil
}
