package agg_test

import (
	"errors"
	"sync"
	"testing"

	"lci/internal/agg"
	"lci/internal/core"
	"lci/internal/fault"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// newFaultRuntimes mirrors newRuntimes but installs a fault injector on
// the fabric before any runtime exists — the order the hardening layer
// requires (each device reads the injector at construction).
func newFaultRuntimes(t *testing.T, n int, inj *fault.Injector, cfg core.Config) []*core.Runtime {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: n, Topo: cfg.Topology})
	fab.SetInjector(inj)
	provider := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1}
	rts := make([]*core.Runtime, n)
	for r := 0; r < n; r++ {
		rt, err := core.NewRuntime(provider, fab, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rts[r] = rt
		t.Cleanup(func() { rt.Close() })
	}
	return rts
}

// TestAggDeadDestErrorCompletes kills the destination rank after records
// are queued toward it: the sealed batch must error-complete through
// Config.OnError with the affected record count, DroppedRecords must
// match, and Flush must still quiesce (the failed buffer recycles) —
// never hang on a batch the network can no longer deliver.
func TestAggDeadDestErrorCompletes(t *testing.T) {
	inj := fault.New(11, 2)
	rts := newFaultRuntimes(t, 2, inj, core.Config{PacketsPerWorker: 64, PreRecvs: 16})

	type drop struct {
		dest, records int
		err           error
	}
	var mu sync.Mutex
	var drops []drop
	cfg := agg.Config{
		BufBytes: 512,
		OnError: func(dest, records int, err error) {
			mu.Lock()
			drops = append(drops, drop{dest, records, err})
			mu.Unlock()
		},
	}
	ag0 := agg.New(rts[0], func(int, []byte) {}, cfg)
	agg.New(rts[1], func(int, []byte) {}, cfg)

	th := ag0.ThreadOn(0)
	const nrec = 7
	for i := 0; i < nrec; i++ {
		if err := ag0.AppendWait(th, 1, []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	inj.KillRank(1)

	ag0.Flush(th)

	mu.Lock()
	defer mu.Unlock()
	if len(drops) != 1 {
		t.Fatalf("OnError calls = %d, want 1 (%+v)", len(drops), drops)
	}
	d := drops[0]
	if d.dest != 1 || d.records != nrec {
		t.Fatalf("OnError(dest=%d, records=%d), want dest=1 records=%d", d.dest, d.records, nrec)
	}
	if !errors.Is(d.err, core.ErrPeerDead) {
		t.Fatalf("OnError err = %v, want ErrPeerDead", d.err)
	}
	if got := ag0.DroppedRecords(); got != nrec {
		t.Fatalf("DroppedRecords = %d, want %d", got, nrec)
	}
	if q := ag0.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes after Flush = %d, want 0", q)
	}
	if snap := inj.Snapshot(); snap.PeerDead == 0 {
		t.Fatalf("injector saw no peer-dead refusals: %+v", snap)
	}
}
