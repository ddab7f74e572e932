package nic_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

var layouts = []nic.LockLayout{nic.LockPerQP, nic.LockAllQP, nic.LockUUARPool, nic.LockEndpoint}

// fast is a near-zero-cost configuration of layout l. Only the endpoint
// layout gets a registration cache, as in the platform presets.
func fast(l nic.LockLayout) nic.Config {
	c := nic.Config{Layout: l, SendOverheadNs: 1, RecvOverheadNs: 1}
	if l == nic.LockEndpoint {
		c.RegCacheNs, c.RegisterNs = 1, 1
	}
	return c
}

// pair opens one device on each of two ranks.
func pair(cfg nic.Config) (d0, d1 *nic.Device) {
	fab := fabric.New(fabric.Config{NumRanks: 2})
	return nic.NewDomain(fab, 0, cfg).NewDevice(), nic.NewDomain(fab, 1, cfg).NewDevice()
}

// TestLayoutDefaults pins the effective cost model each layout resolves
// an empty Config to: mlx5-like for the thread-domain layouts (no
// registration cache), cxi-like for the endpoint lock.
func TestLayoutDefaults(t *testing.T) {
	fab := fabric.New(fabric.Config{NumRanks: 1})
	for _, l := range layouts {
		want := nic.Config{Layout: l, TxDepth: 256, SendOverheadNs: 150, RecvOverheadNs: 100, InlineSize: 220}
		if l == nic.LockEndpoint {
			want = nic.Config{Layout: l, TxDepth: 256, SendOverheadNs: 200, RecvOverheadNs: 120, InlineSize: 192,
				RegCacheNs: 60, RegisterNs: 400}
		}
		if got := nic.NewDomain(fab, 0, nic.Config{Layout: l}).Config(); got != want {
			t.Errorf("%v defaults = %+v, want %+v", l, got, want)
		}
	}
}

// TestLockIdentities checks the lock layout each device reports to the
// try-lock wrapper: which paths share a lock and how many send locks
// exist.
func TestLockIdentities(t *testing.T) {
	const ranks = 8
	fab := fabric.New(fabric.Config{NumRanks: ranks})
	for _, tc := range []struct {
		layout         nic.LockLayout
		locks          int
		send5, rx, cqs int // identities of a post to rank 5, receive posting, CQ polling
	}{
		{nic.LockPerQP, ranks + 2, 5, ranks, ranks + 1},
		{nic.LockAllQP, 3, 0, 1, 2},
		{nic.LockUUARPool, 6, 1, 4, 5}, // 4 uUARs: rank 5 maps to uUAR 1
		{nic.LockEndpoint, 1, 0, 0, 0},
	} {
		d := nic.NewDomain(fab, 0, nic.Config{Layout: tc.layout}).NewDevice()
		if d.NumLocks() != tc.locks || d.SendLock(5) != tc.send5 || d.RecvLock() != tc.rx || d.CQLock() != tc.cqs {
			t.Errorf("%v: locks=%d send(5)=%d rx=%d cq=%d, want %d %d %d %d", tc.layout,
				d.NumLocks(), d.SendLock(5), d.RecvLock(), d.CQLock(), tc.locks, tc.send5, tc.rx, tc.cqs)
		}
	}
}

// TestSendRecv drives a signaled eager send through every layout and
// checks both completion sides.
func TestSendRecv(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.String(), func(t *testing.T) {
			d0, d1 := pair(fast(l))
			if d0.Index() != 0 || d1.Index() != 0 {
				t.Fatalf("first device index = %d/%d, want 0/0", d0.Index(), d1.Index())
			}
			buf := make([]byte, 32)
			d1.PostRecv(buf, "slot")
			if err := d0.PostSend(1, 0, 42, []byte("payload"), "tx"); err != nil {
				t.Fatalf("PostSend: %v", err)
			}
			var comps [4]fabric.Completion
			n := d0.PollCQ(comps[:])
			if n != 1 || comps[0].Kind != fabric.TxDone || comps[0].Ctx != "tx" {
				t.Fatalf("sender poll: n=%d comps=%v", n, comps[:n])
			}
			n = d1.PollCQ(comps[:])
			if n != 1 || comps[0].Kind != fabric.RxSend || comps[0].Ctx != "slot" ||
				comps[0].Src != 0 || comps[0].Meta != 42 || comps[0].Len != 7 {
				t.Fatalf("receiver poll: n=%d comps=%v", n, comps[:n])
			}
			if string(buf[:7]) != "payload" {
				t.Fatalf("payload = %q", buf[:7])
			}
		})
	}
}

// TestRMARoundTrip writes then reads remote memory through every layout,
// including a write-with-immediate and a read after deregistration.
func TestRMARoundTrip(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.String(), func(t *testing.T) {
			d0, d1 := pair(fast(l))
			region := make([]byte, 64)
			rkey := d1.RegisterMem(region)
			if err := d0.PostWrite(1, 0, rkey, 8, []byte("abc"), 0, false, nil); err != nil {
				t.Fatalf("PostWrite: %v", err)
			}
			if string(region[8:11]) != "abc" {
				t.Fatalf("region = %q", region[8:11])
			}
			into := make([]byte, 3)
			if err := d0.PostRead(1, rkey, 8, into, "r"); err != nil {
				t.Fatalf("PostRead: %v", err)
			}
			if string(into) != "abc" {
				t.Fatalf("read back %q", into)
			}
			var comps [8]fabric.Completion
			n := d0.PollCQ(comps[:])
			if n != 2 || comps[0].Kind != fabric.TxDone || comps[1].Kind != fabric.ReadDone || comps[1].Ctx != "r" {
				t.Fatalf("initiator completions: %v", comps[:n])
			}
			if err := d0.PostWrite(1, 0, rkey, 0, []byte("z"), 99, true, nil); err != nil {
				t.Fatalf("PostWrite imm: %v", err)
			}
			n = d1.PollCQ(comps[:])
			if n != 1 || comps[0].Kind != fabric.RxWriteImm || comps[0].Imm != 99 || comps[0].Src != 0 {
				t.Fatalf("target completions: %v", comps[:n])
			}
			d1.DeregisterMem(rkey)
			if err := d0.PostRead(1, rkey, 0, into, nil); err == nil {
				t.Fatal("read from deregistered rkey should fail")
			}
		})
	}
}

// TestTxFullBackpressure: with TxDepth 2 the third unpolled signaled send
// reports ErrTxFull on every layout, and polling restores the credits.
func TestTxFullBackpressure(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := fast(l)
			cfg.TxDepth = 2
			d0, d1 := pair(cfg)
			for i := 0; i < 8; i++ {
				d1.PostRecv(make([]byte, 16), nil)
			}
			for i := 0; i < 2; i++ {
				if err := d0.PostSend(1, 0, 0, []byte("x"), "ctx"); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if err := d0.PostSend(1, 0, 0, []byte("x"), "ctx"); err != nic.ErrTxFull {
				t.Fatalf("third signaled send: got %v, want ErrTxFull", err)
			}
			var comps [8]fabric.Completion
			if n := d0.PollCQ(comps[:]); n != 2 {
				t.Fatalf("polled %d TxDone, want 2", n)
			}
			if err := d0.PostSend(1, 0, 0, []byte("x"), "ctx"); err != nil {
				t.Fatalf("send after poll: %v", err)
			}
		})
	}
}

// TestInlineSendSkipsTxCompletion pins each preset's inline threshold: a
// send with no completion context up to InlineSize bytes produces no
// local completion, one byte more produces exactly one.
func TestInlineSendSkipsTxCompletion(t *testing.T) {
	for _, tc := range []struct {
		plat   lci.Platform
		inline int
	}{{lci.SimExpanse(), 220}, {lci.SimDelta(), 192}} {
		t.Run(tc.plat.Name, func(t *testing.T) {
			d0, d1 := pair(tc.plat.Provider)
			for i := 0; i < 2; i++ {
				d1.PostRecv(make([]byte, 512), nil)
			}
			var comps [4]fabric.Completion
			for _, size := range []int{tc.inline, tc.inline + 1} {
				if err := d0.PostSend(1, 0, 0, make([]byte, size), nil); err != nil {
					t.Fatalf("PostSend(%d B): %v", size, err)
				}
				want := 0
				if size > tc.inline {
					want = 1
				}
				if n := d0.PollCQ(comps[:]); n != want || (n == 1 && comps[0].Kind != fabric.TxDone) {
					t.Fatalf("%d B send produced %d sender completions %v, want %d", size, n, comps[:n], want)
				}
				if n := d1.PollCQ(comps[:]); n != 1 || comps[0].Kind != fabric.RxSend || comps[0].Len != size {
					t.Fatalf("receiver poll after %d B: n=%d comps=%v", size, n, comps[:n])
				}
			}
		})
	}
}

// TestConnectRaceSingleEntry races many threads posting to the same cold
// peer: the connect-on-first-use CAS must build exactly one peer entry,
// every racing poster must wait for it to become ready, and no message
// may be lost. This is the lazy-establishment hot path under -race.
func TestConnectRaceSingleEntry(t *testing.T) {
	const threads = 8
	const perThread = 50
	const total = threads * perThread
	for _, l := range layouts {
		t.Run(l.String(), func(t *testing.T) {
			fab := fabric.New(fabric.Config{NumRanks: 2})
			// A visible setup cost widens the connect window so losers of
			// the CAS race actually wait rather than finding ready==true.
			cfg := nic.Config{Layout: l, ConnectSetupNs: 20000}
			sender := nic.NewDomain(fab, 0, cfg).NewDevice()
			receiver := nic.NewDomain(fab, 1, nic.Config{Layout: l}).NewDevice()
			for i := 0; i < total; i++ {
				receiver.PostRecv(make([]byte, 64), i)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			var bad atomic.Int64
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					payload := []byte{byte(th)}
					<-start
					for m := 0; m < perThread; m++ {
						for {
							err := sender.PostSend(1, 0, uint32(th), payload, nil)
							if err == nil {
								break
							}
							if err != nic.ErrTxFull {
								bad.Add(1)
								return
							}
							runtime.Gosched()
						}
					}
				}(th)
			}
			close(start)
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d posters hit a non-backpressure error", bad.Load())
			}
			if got := sender.ConnectedPeers(); got != 1 {
				t.Errorf("racing posters established %d entries to one peer, want exactly 1", got)
			}
			if got := fab.ConnectedPeers(0); got != 1 {
				t.Errorf("fabric recorded %d established peers for rank 0, want 1", got)
			}
			if got := fab.ConnectedPeers(1); got != 0 {
				t.Errorf("fabric recorded %d established peers for rank 1, which never posted; want 0", got)
			}
			got := 0
			var out [64]fabric.Completion
			deadline := time.Now().Add(30 * time.Second)
			for got < total {
				n := receiver.PollCQ(out[:])
				for i := 0; i < n; i++ {
					if out[i].Kind == fabric.RxSend {
						got++
					}
				}
				if n == 0 {
					if time.Now().After(deadline) {
						t.Fatalf("lost ops: receiver drained %d of %d messages", got, total)
					}
					runtime.Gosched()
				}
			}
		})
	}
}

// TestConnectLazyPerPeer posts to a handful of peers on a wide fabric
// from concurrent threads and checks that established state tracks the
// contacted peers exactly — never world size — with the post locks
// working from the first post.
func TestConnectLazyPerPeer(t *testing.T) {
	const ranks = 64
	const contacted = 5
	for _, l := range layouts {
		t.Run(l.String(), func(t *testing.T) {
			fab := fabric.New(fabric.Config{NumRanks: ranks})
			dev := nic.NewDomain(fab, 0, nic.Config{Layout: l, ConnectSetupNs: 5000}).NewDevice()
			for r := 1; r <= contacted; r++ { // only contacted ranks need receive-side state
				nic.NewDomain(fab, r, nic.Config{Layout: l}).NewDevice()
			}
			var wg sync.WaitGroup
			for th := 0; th < 4; th++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for dst := 1; dst <= contacted; dst++ {
						for dev.PostSend(dst, 0, 0, []byte("x"), nil) != nil {
							runtime.Gosched()
						}
					}
				}()
			}
			wg.Wait()
			if got := dev.ConnectedPeers(); got != contacted {
				t.Errorf("%d peers established, want %d (contacted peers)", got, contacted)
			}
			if got := fab.ConnectedPeers(0); got != contacted {
				t.Errorf("fabric recorded %d peers, want %d", got, contacted)
			}
			peers := fab.PeerRanks(0)
			if len(peers) != contacted || peers[0] != 1 || peers[contacted-1] != contacted {
				t.Errorf("PeerRanks(0) = %v, want [1..%d]", peers, contacted)
			}
			if got := fab.ActiveRanks(); got != contacted+1 {
				t.Errorf("%d of %d rank states materialized, want %d (sender + contacted)",
					got, ranks, contacted+1)
			}
		})
	}
}
