package bench

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lci"
	"lci/internal/core"
	"lci/internal/telemetry"
)

// ChaosResult summarizes one chaos soak: an 8-thread mixed AM +
// rendezvous + allreduce workload driven under a seeded drop/dup/delay
// schedule. The workload asserts exact delivery internally (every AM
// round trip counted, every rendezvous payload byte-verified, every
// allreduce sum checked, packet-pool balance at quiesce); the result
// carries the fault and recovery counters so the soak gate can check the
// schedule actually engaged.
type ChaosResult struct {
	Platform string
	Seed     uint64
	Threads  int
	AMs      int64 // AM round trips completed (exact by construction)
	Rdv      int64 // rendezvous transfers completed, payloads verified
	Seconds  float64
	// Injector verdicts.
	Drops, Dups, Delays int64
	// Runtime hardening counters, summed over both ranks.
	Retransmits, Timeouts, DupSuppressed int64
}

func (r ChaosResult) String() string {
	return fmt.Sprintf("chaos soak %-11s seed=%-6d threads=%-3d ams=%-6d rdv=%-4d %.2fs | faults: drop=%d dup=%d delay=%d | recovery: retx=%d timeout=%d dupsup=%d",
		r.Platform, r.Seed, r.Threads, r.AMs, r.Rdv, r.Seconds,
		r.Drops, r.Dups, r.Delays, r.Retransmits, r.Timeouts, r.DupSuppressed)
}

// KillResult summarizes the peer-death scenario: a three-rank world
// where rank 2 dies after bootstrap and every layer above must surface
// clean typed errors instead of wedging.
type KillResult struct {
	Platform string
	Seed     uint64
	// PeerDeadErrors counts operations that returned or completed with
	// ErrPeerDead: refused posts, the swept parked receive, and the
	// collective over the dead member on both surviving ranks.
	PeerDeadErrors int64
}

func (r KillResult) String() string {
	return fmt.Sprintf("chaos kill %-11s seed=%-6d peer-dead errors=%d (refused posts, swept recv, failed collectives)",
		r.Platform, r.Seed, r.PeerDeadErrors)
}

// chaosRdvEvery: the soak interleaves one rendezvous transfer per this
// many AM round trips on every thread.
const chaosRdvEvery = 8

// ChaosSoak drives the mixed chaos workload on a two-rank world with
// `threads` goroutine pairs under a seeded fault schedule: 3% drops, 2%
// duplicates and 5% delays on the RTS/RTR rendezvous handshakes in both
// directions (eager payload kinds are never dropped — the retransmit
// layer can only recover control messages, which is exactly the class
// real fabrics retransmit). Every thread runs iters AM round trips with
// a byte-verified rendezvous transfer every chaosRdvEvery iterations;
// both ranks then run four verified allreduces; then the run quiesces
// and checks packet-pool balance (packets held at quiesce == packets
// held right after bootstrap — any error path that leaks a packet shows
// up here). Delivery is exact: a drop schedule confined to RTS/RTR plus
// the bounded-retransmit layer must lose nothing. The soak keeps its own
// loop rather than AMRate's body: its rendezvous transfers interleave
// with the timed AM phase, and both ranks return errors to the
// collective phase instead of panicking.
func ChaosSoak(platform lci.Platform, seed uint64, threads, iters int) (ChaosResult, error) {
	inj := lci.NewFaultInjector(seed, 2)
	mask := lci.FaultKindBit(lci.KindRTS) | lci.FaultKindBit(lci.KindRTR)
	for src := 0; src < 2; src++ {
		inj.SetRule(src, 1-src, lci.FaultRule{
			DropP: 0.03, DupP: 0.02, DelayP: 0.05, DelayNs: 2000, KindMask: mask,
		})
	}
	w := lci.NewWorld(2,
		lci.WithPlatform(platform),
		lci.WithRuntimeConfig(core.Config{
			NumDevices:              threads,
			RendezvousTimeoutEpochs: 128,
			RendezvousMaxAttempts:   24,
		}),
		lci.WithFaultInjector(inj))
	defer w.Close()

	nrdv := iters / chaosRdvEvery
	pongs := make([]atomic.Int64, threads)
	var rdvOK atomic.Int64
	var done, failed atomic.Bool
	var elapsed time.Duration
	var snaps [2]telemetry.DeviceCountersSnap

	rdvSize := func(rt *lci.Runtime, t int) int { return rt.MaxEager() + 512 + t }
	rdvFill := func(buf []byte, t, j int) {
		pat := byte(j*131 + t + 1)
		for i := range buf {
			buf[i] = pat + byte(i)
		}
	}

	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		ping := []byte("ping-pay")
		pong := []byte("pong-pay")

		var rc lci.RComp
		if rt.Rank() == 0 {
			rc = rt.RegisterHandler(func(st lci.Status) { pongs[st.Tag].Add(1) })
		} else {
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
		// Packets held at steady state (pre-posted receive rings): the
		// quiesce balance baseline. Drain first — the bootstrap barrier's
		// last messages may not have re-armed their receive slots yet.
		for i := 0; i < 2000; i++ {
			rt.Progress()
		}
		held0 := rt.Core().Pool().Allocated() - int64(rt.Core().Pool().Available())

		errs := make([]error, threads)
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				dev := rt.Device(t)
				progress := func() { dev.Progress() }
				if rt.Rank() == 0 {
					big := make([]byte, rdvSize(rt, t))
					for i := int64(0); i < int64(iters); i++ {
						if err := retry(progress, func() (lci.Status, error) {
							return rt.PostAM(peer, ping, rc, lci.WithTag(t), lci.WithDevice(dev))
						}); err != nil {
							errs[t] = err
							return
						}
						spinUntil(progress, func() bool { return pongs[t].Load() > i })
						if j := int(i+1)/chaosRdvEvery - 1; (i+1)%chaosRdvEvery == 0 && j < nrdv {
							rdvFill(big, t, j)
							sc := lci.NewCounter()
							if err := retry(progress, func() (lci.Status, error) {
								return rt.PostSend(peer, big, t, sc, lci.WithDevice(dev))
							}); err != nil {
								errs[t] = err
								return
							}
							spinUntil(progress, func() bool { return sc.Load() >= 1 })
							if err := sc.Err(); err != nil {
								errs[t] = fmt.Errorf("rendezvous send %d/%d thread %d: %w", j, nrdv, t, err)
								return
							}
						}
					}
					return
				}
				// Rank 1, thread t: receive and verify each rendezvous
				// transfer in order, then keep progressing until the AM
				// traffic is done. On error, fall through to the progress
				// loop anyway — rank 0's threads still need this device
				// polled to finish, and a wedged soak hides the error.
				errs[t] = func() error {
					rbuf := make([]byte, rdvSize(rt, t))
					want := make([]byte, rdvSize(rt, t))
					for j := 0; j < nrdv; j++ {
						rc := lci.NewCounter()
						st, err := rt.PostRecv(0, rbuf, t, rc, lci.WithDevice(dev))
						if err != nil {
							return err
						}
						spinUntil(progress, func() bool { return !st.IsPosted() || rc.Load() >= 1 })
						if err := rc.Err(); err != nil {
							return fmt.Errorf("rendezvous recv %d/%d thread %d: %w", j, nrdv, t, err)
						}
						rdvFill(want, t, j)
						if !bytes.Equal(rbuf, want) {
							return fmt.Errorf("rendezvous payload %d/%d thread %d corrupted", j, nrdv, t)
						}
						rdvOK.Add(1)
					}
					return nil
				}()
				spinUntil(progress, done.Load)
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
		joinErr := errors.Join(errs...)
		if joinErr != nil {
			failed.Store(true)
		}
		// Synchronize before deciding: a failure on either rank must stop
		// both sides from entering the collective phase, or the healthy
		// rank would wait on a peer that never issues its collectives.
		if err := rt.Barrier(); err != nil {
			return errors.Join(joinErr, err)
		}
		if failed.Load() {
			if joinErr != nil {
				return joinErr
			}
			return fmt.Errorf("rank %d: peer rank failed during the thread phase", rt.Rank())
		}

		// Allreduce phase: collectives must stay bit-correct under the
		// same delay schedule.
		for k := 0; k < 4; k++ {
			var in, out [8]byte
			binary.LittleEndian.PutUint64(in[:], uint64(rt.Rank()+1+k))
			if err := rt.Allreduce(in[:], out[:], lci.Int64, lci.OpSum); err != nil {
				return fmt.Errorf("allreduce %d: %w", k, err)
			}
			if got, want := binary.LittleEndian.Uint64(out[:]), uint64(2*k+3); got != want {
				return fmt.Errorf("allreduce %d: got %d, want %d", k, got, want)
			}
		}
		if err := rt.Barrier(); err != nil {
			return err
		}
		// Quiesce: drain any duplicated/delayed stragglers, then check
		// packet-pool balance against the bootstrap baseline.
		for i := 0; i < 2000; i++ {
			rt.Progress()
		}
		held1 := rt.Core().Pool().Allocated() - int64(rt.Core().Pool().Available())
		if held1 != held0 {
			return fmt.Errorf("rank %d: packet-pool imbalance at quiesce: held %d, want %d (leak on an error path)",
				rt.Rank(), held1, held0)
		}
		snaps[rt.Rank()] = rt.Telemetry().Snapshot().Total()
		return nil
	})
	if err != nil {
		return ChaosResult{}, err
	}
	if got, want := rdvOK.Load(), int64(threads*nrdv); got != want {
		return ChaosResult{}, fmt.Errorf("rendezvous transfers verified: %d, want %d", got, want)
	}
	if err := w.Close(); err != nil {
		return ChaosResult{}, fmt.Errorf("world close after soak: %w", err)
	}

	c := inj.Snapshot()
	return ChaosResult{
		Platform: platform.Name, Seed: seed, Threads: threads,
		AMs: int64(threads) * int64(iters), Rdv: rdvOK.Load(),
		Seconds: elapsed.Seconds(),
		Drops:   c.Drops, Dups: c.Dups, Delays: c.Delays,
		Retransmits:   snaps[0].Retransmits + snaps[1].Retransmits,
		Timeouts:      snaps[0].RdvTimeouts + snaps[1].RdvTimeouts,
		DupSuppressed: snaps[0].DupSuppressed + snaps[1].DupSuppressed,
	}, nil
}

// ChaosKill runs the peer-death scenario: three ranks bootstrap, rank 2
// exits and is declared dead, and both survivors must observe clean
// typed errors — refused posts, the swept parked receive, and a failing
// (never hanging) collective.
func ChaosKill(platform lci.Platform, seed uint64) (KillResult, error) {
	inj := lci.NewFaultInjector(seed, 3)
	w := lci.NewWorld(3,
		lci.WithPlatform(platform),
		lci.WithFaultInjector(inj))
	defer w.Close()

	var peerDead atomic.Int64
	countIf := func(err error) error {
		if err == nil {
			return fmt.Errorf("operation against dead rank returned nil error")
		}
		if !errors.Is(err, lci.ErrPeerDead) {
			return fmt.Errorf("operation against dead rank: err = %w, want ErrPeerDead", err)
		}
		peerDead.Add(1)
		return nil
	}

	err := w.Launch(func(rt *lci.Runtime) error {
		// Symmetric handler registration so rank 0 holds a valid remote
		// target for the refused-AM probe, plus the bootstrap-ack handler
		// (exiting a dissemination barrier does not order with the OTHER
		// ranks exiting theirs — the kill must wait until everyone is out,
		// or the comm poisoning rightly fails a still-running barrier).
		var acks atomic.Int64
		rc := rt.RegisterHandler(func(lci.Status) {})
		ackRC := rt.RegisterHandler(func(lci.Status) { acks.Add(1) })
		// Rank 1 parks a receive from rank 2 before anyone dies; the
		// dead-rank sweep must error-complete it.
		var cnt *lci.Counter
		buf := make([]byte, 64)
		if rt.Rank() == 1 {
			cnt = lci.NewCounter()
			if _, err := rt.PostRecv(2, buf, 7, cnt); err != nil {
				return err
			}
		}
		if err := rt.Barrier(); err != nil {
			return err
		}
		if rt.Rank() != 0 {
			if _, err := rt.PostAM(0, []byte{1}, ackRC); err != nil {
				return err
			}
		}
		switch rt.Rank() {
		case 2:
			// Drain so the ack's bookkeeping settles, then exit the world;
			// the injector declares the rank dead.
			for i := 0; i < 256; i++ {
				rt.Progress()
			}
			return nil
		case 0:
			spinUntil(func() { rt.Progress() }, func() bool { return acks.Load() >= 2 })
			inj.KillRank(2)
			_, perr := rt.PostSend(2, buf, 0, lci.NewCounter())
			if err := countIf(perr); err != nil {
				return fmt.Errorf("refused send: %w", err)
			}
			_, perr = rt.PostAM(2, buf, rc)
			if err := countIf(perr); err != nil {
				return fmt.Errorf("refused AM: %w", err)
			}
		case 1:
			spinUntil(func() { rt.Progress() }, func() bool { return cnt.Load() >= 1 })
			if err := countIf(cnt.Err()); err != nil {
				return fmt.Errorf("swept recv: %w", err)
			}
		}
		// Both survivors: a collective including the dead member must
		// return an error, never hang. (Issued in the same order on both.)
		var in, out [8]byte
		err := rt.Allreduce(in[:], out[:], lci.Int64, lci.OpSum)
		if err == nil {
			return fmt.Errorf("rank %d: allreduce over dead member returned nil", rt.Rank())
		}
		if !errors.Is(err, lci.ErrPeerDead) && !errors.Is(err, lci.ErrAborted) && !errors.Is(err, lci.ErrTimeout) {
			return fmt.Errorf("rank %d: allreduce over dead member: %w, want a typed failure-domain error", rt.Rank(), err)
		}
		peerDead.Add(1)
		return nil
	})
	if err != nil {
		return KillResult{}, err
	}
	return KillResult{Platform: platform.Name, Seed: seed, PeerDeadErrors: peerDead.Load()}, nil
}
