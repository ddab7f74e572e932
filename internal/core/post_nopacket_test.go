package core

import (
	"sync/atomic"
	"testing"

	"lci/internal/base"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/packet"
)

// newTinyPoolRuntimes builds a 2-rank world where rank 0's packet pool
// is exactly as large as its pre-posted receive window, so the window
// absorbs the whole pool and every send-side w.Get() finds it empty.
// NewRuntime refuses such a quota, so rank 0 gets the smallest one it
// accepts, PreRecvs+1, and starve takes the one spare packet for the
// test's life. The eager path recycles its packet synchronously (the
// fabric copies), which means pool exhaustion is never caused by sends
// themselves: the only way a packet comes back is an inbound message
// completing, and the only way it leaves again is replenish re-arming
// the window. The transmit queue is kept generous so errNoPacket — not
// network.ErrTxFull — is the resource that runs out.
func newTinyPoolRuntimes(t *testing.T) []*Runtime {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: 2})
	be := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1, TxDepth: 256}
	cfgs := []Config{
		{PacketsPerWorker: 5, PreRecvs: 4}, // rank 0: starved below, sends starve
		{PacketsPerWorker: 64, PreRecvs: 8},
	}
	rts := make([]*Runtime, 2)
	for r := range rts {
		rt, err := NewRuntime(be, fab, r, cfgs[r])
		if err != nil {
			t.Fatal(err)
		}
		rts[r] = rt
	}
	starve(t, rts[0])
	return rts
}

// starve takes the one packet a single-device runtime built with
// PacketsPerWorker = PreRecvs+1 has beyond its receive window, leaving
// the window holding the whole rest of the pool, and returns it; Put it
// back on the default device's worker to restore the pool.
func starve(t *testing.T, rt *Runtime) *packet.Packet {
	t.Helper()
	w := rt.DefaultDevice().worker
	spare := w.Get()
	if spare == nil {
		t.Fatal("no spare packet beyond the receive window")
	}
	if extra := w.Get(); extra != nil {
		t.Fatal("more than one spare packet beyond the receive window")
	}
	return spare
}

// TestPostAMPacketPoolRetryRecovers pins the errNoPacket leg of the
// post path (post.go's classifyRetry): with rank 0's pool fully parked
// in the receive window, posting must bounce as Retry/RetryPacketPool —
// a typed in-band verdict, never an error — and recover as soon as an
// inbound completion returns a packet to the pool. Each recovery is
// transient: the next progress round's replenish re-arms the window and
// re-exhausts the pool, so the starve/recover cycle repeats for every
// message, and all traffic in both directions must still be delivered
// exactly once. Run under -race this also exercises the pool's
// get/put/replenish paths.
func TestPostAMPacketPoolRetryRecovers(t *testing.T) {
	rts := newTinyPoolRuntimes(t)
	defer rts[0].Close()
	defer rts[1].Close()

	var got, fed atomic.Int64
	rc0 := rts[0].RegisterHandler(func(base.Status) { fed.Add(1) })
	rc1 := rts[1].RegisterHandler(func(base.Status) { got.Add(1) })

	buf := make([]byte, 1024) // buffer-copy eager: needs a pool packet
	feed := make([]byte, 8)
	const posts = 16
	posted, retries, feeds := 0, 0, 0
	for attempts := 0; posted < posts; attempts++ {
		if attempts > 10_000 {
			t.Fatalf("no progress after %d attempts (%d posted, %d retries)", attempts, posted, retries)
		}
		st, err := rts[0].PostAM(1, buf, 0, noopComp{}, Options{RComp: rc1})
		if err != nil {
			t.Fatal(err)
		}
		if st.IsRetry() {
			if st.Reason != base.RetryPacketPool {
				t.Fatalf("retry reason = %v, want RetryPacketPool", st.Reason)
			}
			retries++
			// Recovery needs a packet back in the pool: feed rank 0 an
			// inbound AM and progress it so the completed receive
			// recycles its packet.
			if _, err := rts[1].PostAM(0, feed, 0, noopComp{}, Options{RComp: rc0}); err != nil {
				t.Fatal(err)
			}
			feeds++
			rts[1].DefaultDevice().Progress()
			rts[0].DefaultDevice().Progress()
			continue
		}
		posted++
		// Re-arm the receive window: replenish pulls the freed packet
		// back in, so the next post starves again.
		rts[0].DefaultDevice().Progress()
	}
	if retries == 0 {
		t.Fatal("window == pool never surfaced RetryPacketPool")
	}

	for i := 0; i < 10_000 && (got.Load() < posts || fed.Load() < int64(feeds)); i++ {
		rts[1].DefaultDevice().Progress()
		rts[0].DefaultDevice().Progress()
	}
	if got.Load() != posts {
		t.Fatalf("rank 1 delivered %d of %d messages", got.Load(), posts)
	}
	if fed.Load() != int64(feeds) {
		t.Fatalf("rank 0 delivered %d of %d feeder messages", fed.Load(), feeds)
	}
}
