package core

import (
	"sync/atomic"
	"testing"

	"lci/internal/base"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// newTxDepthRuntimes builds a 2-rank world whose provider has a tiny
// transmit queue, so network.ErrTxFull — not packet starvation — is the
// resource that runs out first (the packet quota is kept generous).
func newTxDepthRuntimes(t *testing.T, txDepth int) []*Runtime {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: 2})
	be := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1, TxDepth: txDepth}
	cfg := Config{PacketsPerWorker: 64, PreRecvs: 8}
	rts := make([]*Runtime, 2)
	for r := range rts {
		rt, err := NewRuntime(be, fab, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rts[r] = rt
	}
	return rts
}

// TestPostAMTxFullRetryRecovers pins the ErrTxFull leg of the post path
// directly (post.go's classifyRetry): with TxDepth=2, the third
// unprogressed eager post must bounce as Retry/RetryTxFull — in-band, no
// error — and progressing the sender's own device (which polls its CQ
// and returns transmit credits) must let the retried post succeed, with
// every message eventually delivered exactly once.
func TestPostAMTxFullRetryRecovers(t *testing.T) {
	rts := newTxDepthRuntimes(t, 2)
	defer rts[0].Close()
	defer rts[1].Close()

	var got atomic.Int64
	var rc [2]base.RComp
	for r, rt := range rts { // symmetric registration order
		_ = r
		rc[r] = rt.RegisterHandler(func(base.Status) { got.Add(1) })
	}

	buf := make([]byte, 1024) // buffer-copy eager: consumes a TX credit
	const posts = 16
	posted, retries := 0, 0
	for attempts := 0; posted < posts; attempts++ {
		if attempts > 10_000 {
			t.Fatalf("no progress after %d attempts (%d posted, %d retries)", attempts, posted, retries)
		}
		st, err := rts[0].PostAM(1, buf, 0, noopComp{}, Options{RComp: rc[0]})
		if err != nil {
			t.Fatal(err)
		}
		if st.IsRetry() {
			if st.Reason != base.RetryTxFull {
				t.Fatalf("retry reason = %v, want RetryTxFull", st.Reason)
			}
			retries++
			rts[0].DefaultDevice().Progress() // poll own CQ, return credits
			continue
		}
		posted++
	}
	if retries == 0 {
		t.Fatal("TxDepth=2 never surfaced RetryTxFull")
	}

	for i := 0; i < 10_000 && got.Load() < posts; i++ {
		rts[1].DefaultDevice().Progress()
		rts[0].DefaultDevice().Progress()
	}
	if got.Load() != posts {
		t.Fatalf("delivered %d of %d messages", got.Load(), posts)
	}
}

// TestPostAMTxFullBacklog pins the other ErrTxFull discipline: with
// DisallowRetry, transmit-queue exhaustion must divert posts to the
// device backlog (never a caller-visible Retry) and the backlog must
// drain to full delivery once the device is progressed.
func TestPostAMTxFullBacklog(t *testing.T) {
	rts := newTxDepthRuntimes(t, 2)
	defer rts[0].Close()
	defer rts[1].Close()

	var got atomic.Int64
	var rc [2]base.RComp
	for r, rt := range rts {
		rc[r] = rt.RegisterHandler(func(base.Status) { got.Add(1) })
	}

	dev := rts[0].DefaultDevice()
	buf := make([]byte, 1024)
	const posts = 16
	for i := 0; i < posts; i++ {
		st, err := rts[0].PostAM(1, buf, 0, noopComp{}, Options{RComp: rc[0], DisallowRetry: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.IsRetry() && st.Reason != base.RetryBacklog {
			t.Fatalf("post %d: caller-visible retry (%v) despite DisallowRetry", i, st.Reason)
		}
	}
	if dev.BacklogLen() == 0 {
		t.Fatal("TxDepth=2 never diverted a post to the device backlog")
	}

	for i := 0; i < 10_000 && (got.Load() < posts || dev.BacklogLen() > 0); i++ {
		dev.Progress()
		rts[1].DefaultDevice().Progress()
	}
	if got.Load() != posts {
		t.Fatalf("delivered %d of %d messages", got.Load(), posts)
	}
	if n := dev.BacklogLen(); n != 0 {
		t.Fatalf("backlog still holds %d entries after drain", n)
	}
}
