package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"lci/internal/base"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// TestNewRuntimeRejectsLivelockingQuota: each device pre-posts PreRecvs
// packets from its own worker, and an unpinned post draws from that
// worker or steals from the other devices' workers, which are drained
// the same way. So PacketsPerWorker <= PreRecvs leaves no packet to send
// with and every post returns Retry forever; NewRuntime must refuse it.
// The bound is exact: at PacketsPerWorker = PreRecvs+1 one packet is
// left, and since the fabric copies an eager payload synchronously, that
// one packet carries every send. The second part shows the smallest
// accepted quota completing an AM exchange both ways over two devices.
func TestNewRuntimeRejectsLivelockingQuota(t *testing.T) {
	fab := fabric.New(fabric.Config{NumRanks: 1})
	for _, cfg := range []Config{
		{PacketsPerWorker: 4, PreRecvs: 4},
		{PacketsPerWorker: 3, PreRecvs: 4, NumDevices: 2},
		{PacketsPerWorker: 100}, // under the default window of 128
	} {
		if _, err := NewRuntime(nic.Config{}, fab, 0, cfg); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("NewRuntime(%+v): err = %v, want ErrInvalidArgument", cfg, err)
		}
	}

	const perPair = 64
	rts := newTestRuntimeCfg(t, 2, Config{PacketsPerWorker: 5, PreRecvs: 4, NumDevices: 2})
	defer rts[0].Close()
	defer rts[1].Close()
	var got [2]atomic.Int64
	rcs := make([]base.RComp, 2)
	for r, rt := range rts {
		rcs[r] = rt.RegisterHandler(func(base.Status) { got[r].Add(1) })
	}
	payload := make([]byte, 256) // past the inject size: a buffer-copy eager send
	for i := 0; i < perPair; i++ {
		for r, rt := range rts {
			d := rt.Device(i % 2)
			for spins := 0; ; spins++ {
				st, err := rt.PostAM(1-r, payload, 0, nil, Options{Device: d, RComp: rcs[1-r]})
				if err != nil {
					t.Fatal(err)
				}
				if !st.IsRetry() {
					break
				}
				if spins > 1_000_000 {
					t.Fatalf("rank %d AM %d: Retry after %d progress rounds at the smallest accepted quota", r, i, spins)
				}
				d.Progress()
				rts[1-r].ProgressAll()
			}
		}
	}
	for spins := 0; got[0].Load() < perPair || got[1].Load() < perPair; spins++ {
		if spins > 1_000_000 {
			t.Fatalf("delivered %d and %d AMs, want %d each", got[0].Load(), got[1].Load(), perPair)
		}
		rts[0].ProgressAll()
		rts[1].ProgressAll()
	}
}
