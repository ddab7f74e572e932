package core

import (
	"testing"

	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/topo"
)

// newTopoRuntimes builds runtimes over a fabric that shares the given
// topology, with a cheap provider cost model plus a visible cross-domain
// penalty so placement behavior (and its accounting) is observable.
func newTopoRuntimes(t *testing.T, n int, tp *topo.Topology, cfg Config) []*Runtime {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: n, Topo: tp})
	be := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1, CrossDomainNs: 1}
	cfg.Topology = tp
	rts := make([]*Runtime, n)
	for r := 0; r < n; r++ {
		rt, err := NewRuntime(be, fab, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rts[r] = rt
	}
	return rts
}

// TestPlacementDeviceDomains: with the default LocalPlacement, pool
// devices bind round-robin over the topology's domains and threads pin
// to same-domain devices, spreading round-robin within the domain.
func TestPlacementDeviceDomains(t *testing.T) {
	tp := topo.Uniform(2, 4) // cores 0-3 → domain 0, 4-7 → domain 1
	rts := newTopoRuntimes(t, 1, tp, Config{NumDevices: 4, PacketsPerWorker: 8, PreRecvs: 4})
	rt := rts[0]
	defer rt.Close()

	wantDoms := []int{0, 1, 0, 1}
	for i, want := range wantDoms {
		if got := rt.Device(i).Domain(); got != want {
			t.Errorf("device %d bound to domain %d, want %d", i, got, want)
		}
	}
	// Threads on domain-0 cores alternate over devices {0, 2}; domain-1
	// cores over {1, 3}.
	wantDev := map[int][]int{0: {0, 2, 0}, 5: {1, 3, 1}}
	for core, seq := range wantDev {
		for k, want := range seq {
			a := rt.RegisterThreadAt(core)
			if got := a.Device().Index(); got != want {
				t.Errorf("registration %d on core %d pinned to device %d, want %d", k, core, got, want)
			}
			if a.Domain() != tp.DomainOf(core) {
				t.Errorf("affinity domain = %d, want %d", a.Domain(), tp.DomainOf(core))
			}
			if a.Worker().Domain() != tp.DomainOf(core) {
				t.Errorf("worker slab domain = %d, want %d", a.Worker().Domain(), tp.DomainOf(core))
			}
		}
	}
}

// TestPlacementMoreDomainsThanDevices: a thread in a domain with no local
// device must fall back to the nearest domain that has one instead of
// failing or leaving the pool.
func TestPlacementMoreDomainsThanDevices(t *testing.T) {
	tp := topo.Uniform(4, 2) // 4 domains, cores 0-1 / 2-3 / 4-5 / 6-7
	rts := newTopoRuntimes(t, 1, tp, Config{NumDevices: 2, PacketsPerWorker: 8, PreRecvs: 4})
	rt := rts[0]
	defer rt.Close()

	if d0, d1 := rt.Device(0).Domain(), rt.Device(1).Domain(); d0 != 0 || d1 != 1 {
		t.Fatalf("device domains = %d/%d, want 0/1", d0, d1)
	}
	// Cores in domains 2 and 3 have no local device; with uniform remote
	// distances the nearest fallback is the first domain with devices.
	for _, core := range []int{4, 6} {
		a := rt.RegisterThreadAt(core)
		if idx := a.Device().Index(); idx != 0 && idx != 1 {
			t.Errorf("core %d pinned outside the pool: device %d", core, idx)
		}
		// The thread's own domain is still resolved (for penalty
		// accounting), even though its device is remote.
		if a.Domain() != tp.DomainOf(core) {
			t.Errorf("core %d affinity domain = %d, want %d", core, a.Domain(), tp.DomainOf(core))
		}
	}
}

// TestPlacementSingleDomainMatchesRoundRobin: a single-domain topology
// must reproduce the locality-oblivious pool byte for byte — the same
// device sequence from RegisterThread as a runtime with no topology.
func TestPlacementSingleDomainMatchesRoundRobin(t *testing.T) {
	const devices, regs = 3, 7
	plain := newTestRuntimeCfg(t, 1, Config{NumDevices: devices, PacketsPerWorker: 8, PreRecvs: 4})[0]
	defer plain.Close()
	single := newTopoRuntimes(t, 1, topo.SingleDomain(8), Config{NumDevices: devices, PacketsPerWorker: 8, PreRecvs: 4})[0]
	defer single.Close()

	for i := 0; i < regs; i++ {
		p := plain.RegisterThread().Device().Index()
		s := single.RegisterThread().Device().Index()
		if p != s {
			t.Fatalf("registration %d: single-domain pinned device %d, plain pool %d", i, s, p)
		}
		if want := i % devices; p != want {
			t.Fatalf("registration %d: pinned device %d, want round-robin %d", i, p, want)
		}
	}
	// Single-domain devices stay unbound: no penalty machinery engages.
	for i := 0; i < devices; i++ {
		if dom := single.Device(i).Domain(); dom != topo.UnknownDomain {
			t.Errorf("single-domain device %d bound to domain %d, want unbound", i, dom)
		}
	}
}

// TestRegisterThreadAtUnknownCore: a core outside the topology falls back
// gracefully to the plain round-robin assignment with an unbound worker.
func TestRegisterThreadAtUnknownCore(t *testing.T) {
	tp := topo.Uniform(2, 2)
	rts := newTopoRuntimes(t, 1, tp, Config{NumDevices: 2, PacketsPerWorker: 8, PreRecvs: 4})
	rt := rts[0]
	defer rt.Close()

	for i := 0; i < 4; i++ {
		a := rt.RegisterThreadAt(99)
		if want := i % 2; a.Device().Index() != want {
			t.Errorf("fallback registration %d pinned to device %d, want %d", i, a.Device().Index(), want)
		}
		if a.Domain() != topo.UnknownDomain || a.Worker().Domain() != topo.UnknownDomain {
			t.Errorf("fallback registration %d resolved a domain (%d/%d), want unknown",
				i, a.Domain(), a.Worker().Domain())
		}
	}
}

// TestCrossDomainOpsCounted: under WorstPlacement every pinned post
// drives a remote-domain endpoint, and the provider sims must count (and
// charge) it; under LocalPlacement nothing crosses.
func TestCrossDomainOpsCounted(t *testing.T) {
	tp := topo.Uniform(2, 4)
	for _, tc := range []struct {
		name      string
		place     Placement
		wantCross bool
	}{
		{"local", LocalPlacement{}, false},
		{"worst", WorstPlacement{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NumDevices: 2, PacketsPerWorker: 16, PreRecvs: 4, Placement: tc.place}
			rts := newTopoRuntimes(t, 2, tp, cfg)
			defer rts[0].Close()
			defer rts[1].Close()

			a := rts[0].RegisterThreadAt(0) // domain 0
			wantDev := 0
			if tc.wantCross {
				wantDev = 1 // worst placement pins to the far domain's device
			}
			if got := a.Device().Index(); got != wantDev {
				t.Fatalf("pinned to device %d, want %d", got, wantDev)
			}
			got := &atomicCounter{}
			rc := rts[1].RegisterRComp(got)
			const msgs = 8
			for i := 0; i < msgs; i++ {
				st, err := rts[0].PostAM(1, []byte("x"), 0, nil, Options{Affinity: a, RComp: rc})
				if err != nil {
					t.Fatal(err)
				}
				if st.IsRetry() {
					t.Fatal("unexpected retry with generous quotas")
				}
			}
			for i := 0; i < 100_000 && got.n.Load() < msgs; i++ {
				rts[1].ProgressAll()
			}
			if got.n.Load() != msgs {
				t.Fatalf("delivered %d of %d", got.n.Load(), msgs)
			}
			cross := rts[0].Telemetry().Snapshot().Devices[a.Device().Index()].Gauges.Net.CrossOps
			if tc.wantCross && cross < msgs {
				t.Errorf("cross-domain ops = %d, want >= %d (every post crosses)", cross, msgs)
			}
			if !tc.wantCross && cross != 0 {
				t.Errorf("cross-domain ops = %d, want 0 under local placement", cross)
			}
		})
	}
}

// TestUnpinnedStripePrefersLocalDevices: an unpinned post carrying a
// domain-bound worker must stripe over same-domain devices only, and an
// unbound worker must keep the global round-robin stripe.
func TestUnpinnedStripePrefersLocalDevices(t *testing.T) {
	tp := topo.Uniform(2, 4)
	rts := newTopoRuntimes(t, 2, tp, Config{NumDevices: 4, PacketsPerWorker: 64, PreRecvs: 16})
	defer rts[0].Close()
	defer rts[1].Close()

	a := rts[0].RegisterThreadAt(5) // domain 1: local devices are 1 and 3
	got := &atomicCounter{}
	rc := rts[1].RegisterRComp(got)
	const msgs = 16
	for i := 0; i < msgs; i++ {
		for {
			// Worker set, but no Device/Affinity: the unpinned stripe sees
			// only the worker's domain.
			st, err := rts[0].PostAM(1, []byte("local-stripe"), 0, nil, Options{RComp: rc, Worker: a.Worker()})
			if err != nil {
				t.Fatal(err)
			}
			if !st.IsRetry() {
				break
			}
			rts[0].ProgressAll()
			rts[1].ProgressAll()
		}
	}
	for i := 0; i < 100_000 && got.n.Load() < msgs; i++ {
		rts[0].ProgressAll()
		rts[1].ProgressAll()
	}
	if got.n.Load() != msgs {
		t.Fatalf("delivered %d of %d", got.n.Load(), msgs)
	}
	// Posts targeted the peer's same-index endpoints, so the domain-1
	// endpoints (1, 3) carry everything and the domain-0 endpoints nothing.
	for i := 0; i < 4; i++ {
		n := rts[1].Telemetry().Snapshot().Devices[i].Gauges.Net.Msgs
		if i%2 == 1 && n < msgs/4 {
			t.Errorf("local endpoint %d carried %d msgs, want a fair share of %d", i, n, msgs)
		}
		if i%2 == 0 && n != 0 {
			t.Errorf("remote endpoint %d carried %d msgs, want 0", i, n)
		}
	}
}
