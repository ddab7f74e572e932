package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lci"
	"lci/internal/core"
)

// AMRate measures small-AM ping-pong throughput in million round trips
// per second: two ranks, threads goroutines per rank on a threads-sized
// device pool, 8-byte payloads, thread t on its own device with tag t
// pairing the traffic. It is the workload behind BENCH_am.json (handler
// against cqshim), BENCH_obs.json (enabled against disabled) and
// BENCH_chaos.json (plain against hardened).
//
// mode selects the receive-side serving discipline and the runtime:
//
//   - "handler": the first-class route. One registered remote handler per
//     rank; the responder's handler posts the reply from inside the
//     poller with prebuilt options and the backlog (no-retry) discipline,
//     so responder threads are pure progress loops and a round trip is
//     served without touching a completion queue. "enabled" (telemetry
//     on, against "disabled") and "plain" (failure domain idle, against
//     "hardened") are the same run under the name of the comparison it
//     anchors. With telemetry on, the run fails if rank 0's snapshot
//     counted no handler fires: an all-zero snapshot would mean the
//     counters fell off the hot path whose overhead is being measured.
//   - "cqshim": the dispatch loop the old internal/rpc transport ran
//     before it collapsed onto handler completions. AMs land in one
//     shared completion queue per rank; every thread's serve step is
//     progress + pop + dispatch, and replies are posted from
//     thread context with PostAM and per-call variadic options
//     (WithTag, WithDevice) — the per-message costs (status boxing,
//     shared MPMC traffic, payload copy, option building) the handler
//     path deletes. A reply lands on the device of whichever responder
//     thread popped the ping, so it can reach any initiator device.
//   - "disabled": the handler path with telemetry fully off.
//   - "hardened": the handler path with the failure domain armed — an
//     installed, ruleless fault injector plus rendezvous timeouts (128
//     epochs × 24 attempts, the chaos soak's budget) — but no faults.
func AMRate(platform lci.Platform, threads, iters int, mode string) Workload {
	return workload("Mrt/s", func() (int64, time.Duration, error) {
		cfg := core.Config{NumDevices: threads}
		var opts []lci.WorldOption
		after := func(rt *lci.Runtime) error {
			s := rt.Telemetry().Snapshot()
			if s.Empty() {
				return fmt.Errorf("bench: telemetry enabled but snapshot empty after %d round trips",
					int64(threads)*int64(iters))
			}
			if s.Total().AMFires == 0 {
				return fmt.Errorf("bench: telemetry enabled but no AM fires counted")
			}
			return nil
		}
		switch mode {
		case "handler", "enabled", "plain":
		case "cqshim":
			after = nil
		case "disabled":
			opts = append(opts, lci.WithTelemetry(lci.TelemetryConfig{Disable: true}))
			after = nil
		case "hardened":
			cfg.RendezvousTimeoutEpochs, cfg.RendezvousMaxAttempts = 128, 24
			opts = append(opts, lci.WithFaultInjector(lci.NewFaultInjector(1, 2)))
		default:
			return 0, 0, fmt.Errorf("bench: unknown AM mode %q", mode)
		}
		opts = append(opts, lci.WithRuntimeConfig(cfg))
		return amPingPong(platform, threads, iters, mode, opts, nil, after)
	}, "am %s %s threads=%d", mode, platform.Name, threads)
}

// TelemetryReport runs a short mixed workload (one rendezvous-sized
// transfer each way per thread pair, then the handler-path small-AM
// ping-pong) and returns rank 0's rendered telemetry snapshot — the text
// behind `lci-bench -stats`. With trace set the lifecycle trace ring
// records the run and the dump's tail is appended to the report
// (`lci-bench -trace`).
func TelemetryReport(platform lci.Platform, threads, iters int, trace bool) (string, error) {
	opts := []lci.WorldOption{
		lci.WithRuntimeConfig(core.Config{NumDevices: threads}),
		lci.WithTelemetry(lci.TelemetryConfig{Trace: trace}),
	}
	// Both ranks send one transfer past the eager limit to the peer on
	// every device and receive the peer's, so rank 0's snapshot shows
	// both rendezvous sides (RTS, RTR, write) alongside the eager path.
	rdv := func(rt *lci.Runtime) error {
		size := rt.MaxEager() + 1
		big, in := make([]byte, size), make([]byte, threads*size)
		cq := lci.NewCQ()
		for t := 0; t < threads; t++ {
			dev := lci.WithDevice(rt.Device(t))
			if _, err := rt.PostRecv(1-rt.Rank(), in[t*size:(t+1)*size], t, cq, dev); err != nil {
				return err
			}
			if err := retry(func() { rt.Device(t).Progress() }, func() (lci.Status, error) {
				return rt.PostSend(1-rt.Rank(), big, t, cq, dev)
			}); err != nil {
				return err
			}
		}
		for n := 0; n < 2*threads; {
			if _, ok := cq.Pop(); ok {
				n++
				continue
			}
			rt.Progress()
		}
		return nil
	}
	var b strings.Builder
	render := func(rt *lci.Runtime) error {
		fmt.Fprintf(&b, "telemetry snapshot, rank 0 (%s, %d threads, %d round trips/thread):\n\n",
			platform.Name, threads, iters)
		b.WriteString(rt.Telemetry().Snapshot().String())
		if trace {
			ev := rt.Telemetry().Trace().Dump()
			from := max(len(ev)-32, 0)
			fmt.Fprintf(&b, "\ntrace ring: %d events, last %d:\n", len(ev), len(ev)-from)
			for _, e := range ev[from:] {
				fmt.Fprintf(&b, "  %s\n", e)
			}
		}
		return nil
	}
	if _, _, err := amPingPong(platform, threads, iters, "handler", opts, rdv, render); err != nil {
		return "", err
	}
	return b.String(), nil
}

// retry repeats post until it is not refused with Retry, calling progress
// in between.
func retry(progress func(), post func() (lci.Status, error)) error {
	for {
		st, err := post()
		if err != nil || !st.IsRetry() {
			return err
		}
		progress()
	}
}

// spinUntil progresses until cond holds, yielding every 64 misses for
// fairness when goroutines outnumber cores.
func spinUntil(progress func(), cond func() bool) {
	for miss := 0; !cond(); miss++ {
		progress()
		if miss&63 == 63 {
			runtime.Gosched()
		}
	}
}

// amPingPong is the one small-AM ping-pong body behind AMRate and
// TelemetryReport: a two-rank world built from opts on platform, the
// mode's serving discipline ("cqshim" or the handler path for any other
// mode), and threads pairs of iters 8-byte round trips, timed on rank 0.
// before, if set, runs on every rank after the handlers are registered
// and before the timed phase; after, if set, runs on rank 0 once the
// timed phase is over. It returns the round trips counted as they
// completed, which must come to threads×iters, and rank 0's timed phase.
func amPingPong(platform lci.Platform, threads, iters int, mode string, opts []lci.WorldOption,
	before, after func(rt *lci.Runtime) error) (int64, time.Duration, error) {
	w := lci.NewWorld(2, append([]lci.WorldOption{lci.WithPlatform(platform)}, opts...)...)
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
		switch {
		case mode == "cqshim":
			// One shared queue per rank, registered as the remote target.
			cq = lci.NewCQ()
			rc = rt.RegisterRComp(cq)
		case rt.Rank() == 0:
			rc = rt.RegisterHandler(func(st lci.Status) { pongs[st.Tag].Add(1) })
		default:
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
		}
		if err := rt.Barrier(); err != nil {
			return err
		}
		if before != nil {
			if err := before(rt); err != nil {
				return err
			}
		}

		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				dev := rt.Device(t)
				serve := func() {
					dev.Progress()
					for cq != nil {
						st, ok := cq.Pop()
						if !ok {
							return
						}
						if rt.Rank() == 0 {
							pongs[st.Tag].Add(1)
							continue
						}
						// Reply from thread context, the way the shim's
						// Serve loop did.
						if err := retry(func() { dev.Progress() }, func() (lci.Status, error) {
							return rt.PostAM(st.Rank, pong, rc, lci.WithTag(st.Tag), lci.WithDevice(dev))
						}); err != nil {
							panic(err)
						}
					}
				}
				if rt.Rank() != 0 {
					spinUntil(serve, done.Load)
					return
				}
				for i := int64(0); i < int64(iters); i++ {
					if err := retry(serve, func() (lci.Status, error) {
						return rt.PostAM(peer, ping, rc, lci.WithTag(t), lci.WithDevice(dev))
					}); err != nil {
						panic(err)
					}
					spinUntil(serve, func() bool { return pongs[t].Load() > i })
				}
				finished.Add(1)
				if cq != nil {
					spinUntil(serve, func() bool { return finished.Load() == int32(threads) })
				}
			}(t)
		}
		if rt.Rank() != 0 {
			wg.Wait()
			return nil
		}
		t0 := time.Now()
		wg.Wait()
		elapsed = time.Since(t0)
		done.Store(true)
		if after != nil {
			return after(rt)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	var msgs int64
	for t := range pongs {
		msgs += pongs[t].Load()
	}
	if want := int64(threads) * int64(iters); msgs != want {
		return 0, 0, fmt.Errorf("bench: %d round trips counted, want %d", msgs, want)
	}
	return msgs, elapsed, nil
}
