package lci_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci"
	"lci/internal/core"
)

// spinUntil progresses rt until pred is true or the deadline passes.
func spinUntil(t *testing.T, rt *lci.Runtime, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !pred() {
		rt.Progress()
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for completion")
		}
	}
}

func forEachPlatform(t *testing.T, f func(t *testing.T, p lci.Platform)) {
	for _, p := range lci.Platforms() {
		t.Run(p.Name, func(t *testing.T) { f(t, p) })
	}
}

func TestSendRecvSizes(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p lci.Platform) {
		// 8: inject; 4096: buffer-copy eager; 100_000: rendezvous
		for _, size := range []int{1, 8, 64, 65, 1000, 8160, 8161, 100_000, 1 << 20} {
			size := size
			t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
				w := lci.NewWorld(2, lci.WithPlatform(p))
				defer w.Close()
				err := w.Launch(func(rt *lci.Runtime) error {
					peer := 1 - rt.Rank()
					msg := make([]byte, size)
					for i := range msg {
						msg[i] = byte(i * 7)
					}
					if rt.Rank() == 0 {
						cnt := lci.NewCounter()
						st, err := rt.PostSend(peer, msg, 42, cnt)
						if err != nil {
							return err
						}
						for st.IsRetry() {
							rt.Progress()
							st, err = rt.PostSend(peer, msg, 42, cnt)
							if err != nil {
								return err
							}
						}
						if st.IsPosted() {
							spinUntil(t, rt, func() bool { return cnt.Load() == 1 })
						}
						// Keep progressing so the peer's rendezvous can finish.
						return rt.Barrier()
					}
					buf := make([]byte, size)
					cq := lci.NewCQ()
					st, err := rt.PostRecv(peer, buf, 42, cq)
					if err != nil {
						return err
					}
					var got lci.Status
					if st.IsDone() {
						got = st
					} else {
						spinUntil(t, rt, func() bool {
							var ok bool
							got, ok = cq.Pop()
							return ok
						})
					}
					if got.Rank != peer || got.Tag != 42 {
						return fmt.Errorf("status rank/tag = %d/%d, want %d/42", got.Rank, got.Tag, peer)
					}
					if got.Size != size {
						return fmt.Errorf("size = %d, want %d", got.Size, size)
					}
					if !bytes.Equal(buf[:size], msg) {
						return fmt.Errorf("payload mismatch at size %d", size)
					}
					return rt.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

func TestRecvBeforeSendAndAfterSend(t *testing.T) {
	// Exercise both matching orders: posted receive matched by a later
	// arrival, and an unexpected arrival matched by a later receive.
	forEachPlatform(t, func(t *testing.T, p lci.Platform) {
		w := lci.NewWorld(2, lci.WithPlatform(p))
		defer w.Close()
		err := w.Launch(func(rt *lci.Runtime) error {
			peer := 1 - rt.Rank()
			if rt.Rank() == 0 {
				for tag := 0; tag < 2; tag++ {
					cnt := lci.NewCounter()
					msg := []byte(fmt.Sprintf("msg-%d", tag))
					for {
						st, err := rt.PostSend(peer, msg, tag, cnt)
						if err != nil {
							return err
						}
						if !st.IsRetry() {
							break
						}
						rt.Progress()
					}
				}
				return rt.Barrier()
			}
			// tag 0: recv posted first (expected path)
			buf0 := make([]byte, 16)
			cq := lci.NewCQ()
			if _, err := rt.PostRecv(peer, buf0, 0, cq); err != nil {
				return err
			}
			var st0 lci.Status
			spinUntil(t, rt, func() bool {
				var ok bool
				st0, ok = cq.Pop()
				return ok
			})
			if string(st0.Buffer) != "msg-0" {
				return fmt.Errorf("tag0 payload = %q", st0.Buffer)
			}
			// tag 1 arrived unexpectedly by now (sender already finished);
			// let it land, then post the receive and expect Done.
			time.Sleep(time.Millisecond)
			for i := 0; i < 100; i++ {
				rt.Progress()
			}
			buf1 := make([]byte, 16)
			st1, err := rt.PostRecv(peer, buf1, 1, cq)
			if err != nil {
				return err
			}
			if !st1.IsDone() {
				spinUntil(t, rt, func() bool {
					var ok bool
					st1, ok = cq.Pop()
					return ok
				})
			}
			if string(st1.Buffer) != "msg-1" {
				return fmt.Errorf("tag1 payload = %q", st1.Buffer)
			}
			return rt.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestActiveMessageEagerAndRendezvous(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p lci.Platform) {
		for _, size := range []int{8, 4000, 100_000} {
			size := size
			t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
				w := lci.NewWorld(2, lci.WithPlatform(p))
				defer w.Close()
				err := w.Launch(func(rt *lci.Runtime) error {
					peer := 1 - rt.Rank()
					rcq := lci.NewCQ()
					rcomp := rt.RegisterRComp(rcq)
					_ = rcomp // both ranks register; handles are symmetric
					if err := rt.Barrier(); err != nil {
						return err
					}
					if rt.Rank() == 0 {
						msg := make([]byte, size)
						for i := range msg {
							msg[i] = byte(i)
						}
						cnt := lci.NewCounter()
						for {
							st, err := rt.PostAM(peer, msg, rcomp, lci.WithTag(9), lci.WithLocalComp(cnt))
							if err != nil {
								return err
							}
							if !st.IsRetry() {
								break
							}
							rt.Progress()
						}
						return rt.Barrier()
					}
					var got lci.Status
					spinUntil(t, rt, func() bool {
						var ok bool
						got, ok = rcq.Pop()
						return ok
					})
					if got.Rank != peer || got.Tag != 9 || got.Size != size {
						return fmt.Errorf("AM status = %+v", got)
					}
					for i := range got.Buffer {
						if got.Buffer[i] != byte(i) {
							return fmt.Errorf("AM payload corrupt at %d", i)
						}
					}
					return rt.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

func TestPutAndPutWithSignal(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p lci.Platform) {
		w := lci.NewWorld(2, lci.WithPlatform(p))
		defer w.Close()
		err := w.Launch(func(rt *lci.Runtime) error {
			peer := 1 - rt.Rank()
			region := make([]byte, 1024)
			rkey, err := rt.RegisterMemory(nil, region)
			if err != nil {
				return err
			}
			// Exchange rkeys via AM.
			rkeyCQ := lci.NewCQ()
			rc := rt.RegisterRComp(rkeyCQ)
			_ = rc
			if err := rt.Barrier(); err != nil {
				return err
			}
			msg := []byte(fmt.Sprintf("%d", rkey))
			for {
				// rcomp handle 1 on the peer is rkeyCQ.
				st, err := rt.PostAM(peer, msg, 1, lci.WithTag(0))
				if err != nil {
					return err
				}
				if !st.IsRetry() {
					break
				}
				rt.Progress()
			}
			var got lci.Status
			spinUntil(t, rt, func() bool {
				var ok bool
				got, ok = rkeyCQ.Pop()
				return ok
			})
			var peerRkey uint64
			fmt.Sscanf(string(got.Buffer), "%d", &peerRkey)

			if rt.Rank() == 0 {
				// Plain put, then put-with-signal to the notification CQ.
				data := []byte("put-payload")
				cnt := lci.NewCounter()
				for {
					st, err := rt.PostPut(peer, data, 5, peerRkey, 100, cnt)
					if err != nil {
						return err
					}
					if !st.IsRetry() {
						break
					}
					rt.Progress()
				}
				spinUntil(t, rt, func() bool { return cnt.Load() == 1 })
				// Signal via the same CQ handle (index 1 on the peer).
				sig := []byte("sig")
				for {
					st, err := rt.PostPut(peer, sig, 6, peerRkey, 200, cnt, lci.WithRemoteComp(1))
					if err != nil {
						return err
					}
					if !st.IsRetry() {
						break
					}
					rt.Progress()
				}
				spinUntil(t, rt, func() bool { return cnt.Load() == 2 })
				return rt.Barrier()
			}
			// Rank 1 waits for the signal, then checks both writes landed.
			var sig lci.Status
			spinUntil(t, rt, func() bool {
				var ok bool
				sig, ok = rkeyCQ.Pop()
				return ok
			})
			if sig.Tag != 6 || sig.Rank != peer || sig.Size != 3 {
				return fmt.Errorf("signal status = %+v", sig)
			}
			if string(region[100:111]) != "put-payload" {
				return fmt.Errorf("put did not land: %q", region[100:111])
			}
			if string(region[200:203]) != "sig" {
				return fmt.Errorf("put-with-signal did not land: %q", region[200:203])
			}
			return rt.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestGet(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p lci.Platform) {
		w := lci.NewWorld(2, lci.WithPlatform(p))
		defer w.Close()
		err := w.Launch(func(rt *lci.Runtime) error {
			peer := 1 - rt.Rank()
			region := make([]byte, 256)
			for i := range region {
				region[i] = byte(rt.Rank()*100 + i%50)
			}
			rkey, err := rt.RegisterMemory(nil, region)
			if err != nil {
				return err
			}
			// rkeys are assigned from a shared fabric counter; exchange via AM.
			cq := lci.NewCQ()
			rt.RegisterRComp(cq)
			if err := rt.Barrier(); err != nil {
				return err
			}
			for {
				st, err := rt.PostAM(peer, []byte(fmt.Sprintf("%d", rkey)), 1)
				if err != nil {
					return err
				}
				if !st.IsRetry() {
					break
				}
				rt.Progress()
			}
			var got lci.Status
			spinUntil(t, rt, func() bool {
				var ok bool
				got, ok = cq.Pop()
				return ok
			})
			var peerRkey uint64
			fmt.Sscanf(string(got.Buffer), "%d", &peerRkey)

			dst := make([]byte, 64)
			cnt := lci.NewCounter()
			for {
				st, err := rt.PostGet(peer, dst, peerRkey, 32, cnt)
				if err != nil {
					return err
				}
				if !st.IsRetry() {
					break
				}
				rt.Progress()
			}
			spinUntil(t, rt, func() bool { return cnt.Load() == 1 })
			for i := range dst {
				want := byte(peer*100 + (32+i)%50)
				if dst[i] != want {
					return fmt.Errorf("get[%d] = %d, want %d", i, dst[i], want)
				}
			}
			return rt.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestTable1PostCommMatrix verifies the full Table 1: which combinations
// of direction, remote buffer and remote completion are valid, and which
// paradigm each one instantiates.
func TestTable1PostCommMatrix(t *testing.T) {
	w := lci.NewWorld(2)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		region := make([]byte, 4096)
		rkey, err := rt.RegisterMemory(nil, region)
		if err != nil {
			return err
		}
		cq := lci.NewCQ()
		rc := rt.RegisterRComp(cq)
		if err := rt.Barrier(); err != nil {
			return err
		}
		// rcomps are symmetric (same registration order on both ranks),
		// but rkeys are fabric-unique; exchange them over an AM.
		for {
			st, err := rt.PostAM(peer, []byte(fmt.Sprintf("%d", rkey)), rc)
			if err != nil {
				return err
			}
			if !st.IsRetry() {
				break
			}
			rt.Progress()
		}
		var rkMsg lci.Status
		spinUntil(t, rt, func() bool {
			var ok bool
			rkMsg, ok = cq.Pop()
			return ok
		})
		var peerRkey uint64
		fmt.Sscanf(string(rkMsg.Buffer), "%d", &peerRkey)
		rkey = peerRkey

		if rt.Rank() != 0 {
			// Rank 1: serve matching recvs for the OUT/send case, then idle
			// in progress until rank 0 finishes.
			buf := make([]byte, 64)
			if _, err := rt.PostRecv(peer, buf, 1, lci.NewCounter()); err != nil {
				return err
			}
			return rt.Barrier()
		}

		type caseT struct {
			dir     lci.Direction
			remote  bool
			rcomp   bool
			valid   bool
			whatFor string
		}
		cases := []caseT{
			{lci.Out, false, false, true, "send"},
			{lci.Out, false, true, true, "active message"},
			{lci.Out, true, false, true, "RMA put"},
			{lci.Out, true, true, true, "RMA put with signal"},
			{lci.In, false, false, true, "receive"},
			{lci.In, false, true, false, "(invalid)"},
			{lci.In, true, false, true, "RMA get"},
			{lci.In, true, true, false, "RMA get with signal (valid in Table 1, unimplemented per §5.3)"},
		}
		buf := make([]byte, 64)
		for i, c := range cases {
			var opts []lci.Option
			if c.remote {
				opts = append(opts, lci.WithRemoteBuffer(rkey, 0))
			}
			if c.rcomp {
				opts = append(opts, lci.WithRemoteComp(rc))
			}
			tag := 1
			for {
				st, err := rt.PostComm(c.dir, peer, buf, tag, cq, opts...)
				if c.valid && err != nil {
					return fmt.Errorf("case %d (%s): unexpected error %v", i, c.whatFor, err)
				}
				if !c.valid {
					if err == nil {
						return fmt.Errorf("case %d (%s): expected an error", i, c.whatFor)
					}
					break
				}
				if st.IsRetry() {
					rt.Progress()
					continue
				}
				break
			}
		}
		return rt.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierManyRanks: the dissemination barrier must synchronize more
// than two ranks, repeatedly, on every platform.
func TestBarrierManyRanks(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p lci.Platform) {
		const ranks, rounds = 5, 6
		w := lci.NewWorld(ranks, lci.WithPlatform(p))
		defer w.Close()
		// entered[r] counts barrier rounds rank r has completed; after each
		// barrier every rank must observe all peers at least at its own
		// round — a straggler would prove the barrier released early.
		var entered [ranks]atomic.Int64
		err := w.Launch(func(rt *lci.Runtime) error {
			for round := 1; round <= rounds; round++ {
				entered[rt.Rank()].Store(int64(round))
				if err := rt.Barrier(); err != nil {
					return err
				}
				for r := 0; r < ranks; r++ {
					if got := entered[r].Load(); got < int64(round) {
						return fmt.Errorf("rank %d saw rank %d at round %d during round %d",
							rt.Rank(), r, got, round)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestTopologyOptionOrder: WithTopology/WithPlacement must survive a
// later WithRuntimeConfig (which replaces the whole core config) instead
// of being silently discarded — a world that claims a topology must
// actually bind its devices to domains.
func TestTopologyOptionOrder(t *testing.T) {
	w := lci.NewWorld(1,
		lci.WithTopology(lci.TopoUniform(2, 2)),
		lci.WithPlacement(lci.PlaceWorst),
		lci.WithRuntimeConfig(core.Config{NumDevices: 2, PacketsPerWorker: 8, PreRecvs: 4}))
	defer w.Close()
	rt, err := w.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 2; i++ {
		if dom := rt.Device(i).Domain(); dom != i {
			t.Errorf("device %d bound to domain %d, want %d (topology lost to option order?)", i, dom, i)
		}
	}
	// And the placement override survived too: a thread on a domain-0
	// core must land on the far domain's device under PlaceWorst.
	if a := rt.RegisterThreadAt(0); a.Device().Index() != 1 {
		t.Errorf("worst placement pinned core 0 to device %d, want 1", a.Device().Index())
	}
}

// TestBarrierEpochRecycling: the barrier's tag space is bounded — epochs
// recycle modulo a fixed window instead of growing forever. Running many
// times more barriers than the window (with the release-order check of
// TestBarrierManyRanks on every round) proves recycled epochs never
// mismatch messages across rounds.
func TestBarrierEpochRecycling(t *testing.T) {
	const ranks = 2
	const rounds = 2*128 + 5 // cross the epoch window twice (window 128)
	w := lci.NewWorld(ranks)
	defer w.Close()
	var entered [ranks]atomic.Int64
	err := w.Launch(func(rt *lci.Runtime) error {
		for round := 1; round <= rounds; round++ {
			entered[rt.Rank()].Store(int64(round))
			if err := rt.Barrier(); err != nil {
				return err
			}
			for r := 0; r < ranks; r++ {
				if got := entered[r].Load(); got < int64(round) {
					return fmt.Errorf("rank %d saw rank %d at round %d during round %d",
						rt.Rank(), r, got, round)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierMultiDeviceConcurrentProgress: barriers over a multi-device
// pool while a background goroutine per rank hammers the whole pool's
// progress engines. Barrier posts stripe across the devices, so arrivals
// land on every endpoint; the test must stay race-clean and never hang.
func TestBarrierMultiDeviceConcurrentProgress(t *testing.T) {
	const ranks, rounds = 4, 8
	w := lci.NewWorld(ranks, lci.WithRuntimeConfig(core.Config{
		NumDevices:       2,
		PacketsPerWorker: 256,
		PreRecvs:         64,
	}))
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		if rt.NumDevices() != 2 {
			return fmt.Errorf("pool size = %d, want 2", rt.NumDevices())
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rt.Progress() // whole pool, concurrently with Barrier's own progress
				}
			}
		}()
		var err error
		for round := 0; round < rounds; round++ {
			if err = rt.Barrier(); err != nil {
				break
			}
		}
		close(stop)
		wg.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
