package amt_test

import (
	"math"
	"sync"
	"testing"

	"lci"
	"lci/internal/amt"
	"lci/internal/mpibase"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/rpc"
)

func smallCfg(threads int) amt.Config {
	return amt.Config{Depth: 2, GridSize: 8, Steps: 4, Threads: threads}
}

func runLCI(t *testing.T, ranks, threads int) []amt.Result {
	t.Helper()
	cfg := smallCfg(threads)
	world := lci.NewWorld(ranks)
	results := make([]amt.Result, ranks)
	err := world.Launch(func(rt *lci.Runtime) error {
		tr, err := rpc.NewLCITransport(rt, threads)
		if err != nil {
			return err
		}
		res, err := amt.Run(tr, cfg)
		if err != nil {
			return err
		}
		results[rt.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func runMPI(t *testing.T, ranks, threads, vcis int) []amt.Result {
	t.Helper()
	cfg := smallCfg(threads)
	plat := lci.SimExpanse()
	fab := fabric.New(fabric.Config{NumRanks: ranks})
	trs := make([]*rpc.MPITransport, ranks)
	for r := 0; r < ranks; r++ {
		m := mpibase.New(nic.NewDomain(fab, r, plat.Provider), mpibase.Config{
			NumVCIs: vcis, AssertNoAnyTag: true, AssertAllowOvertaking: true,
		})
		tr, err := rpc.NewMPITransport(m, threads, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		trs[r] = tr
	}
	results := make([]amt.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = amt.Run(trs[r], cfg)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return results
}

func totals(results []amt.Result) (mass, checksum float64) {
	for _, r := range results {
		mass += r.Mass
		checksum += r.Checksum
	}
	return
}

func TestOctoMassConservation(t *testing.T) {
	// One rank: the diffusion stencil with periodic halos must conserve
	// total density exactly (up to FP rounding).
	res := runLCI(t, 1, 2)
	cfg := smallCfg(2)

	// Initial mass: recompute by running zero steps.
	cfg0 := cfg
	cfg0.Steps = 4
	_ = cfg0
	// Compare against the 1-rank, 1-thread run (same physics).
	res2 := runLCI(t, 1, 1)
	m1, _ := totals(res)
	m2, _ := totals(res2)
	if math.Abs(m1-m2) > 1e-9*math.Abs(m1) {
		t.Fatalf("mass differs across thread counts: %v vs %v", m1, m2)
	}
}

func TestOctoDeterministicAcrossRankCounts(t *testing.T) {
	base := runLCI(t, 1, 2)
	for _, ranks := range []int{2, 4} {
		res := runLCI(t, ranks, 2)
		m0, c0 := totals(base)
		m1, c1 := totals(res)
		if math.Abs(m0-m1) > 1e-9*math.Abs(m0) {
			t.Errorf("ranks=%d: mass %v, want %v", ranks, m1, m0)
		}
		if math.Abs(c0-c1) > 1e-9*math.Abs(c0) {
			t.Errorf("ranks=%d: checksum %v, want %v", ranks, c1, c0)
		}
	}
}

func TestOctoLCIVsMPIBackends(t *testing.T) {
	ranks, threads := 2, 2
	lciRes := runLCI(t, ranks, threads)
	mpiRes := runMPI(t, ranks, threads, 1)
	mpixRes := runMPI(t, ranks, threads, threads)
	_, c0 := totals(lciRes)
	_, c1 := totals(mpiRes)
	_, c2 := totals(mpixRes)
	if math.Abs(c0-c1) > 1e-9*math.Abs(c0) {
		t.Errorf("mpi checksum %v, want %v", c1, c0)
	}
	if math.Abs(c0-c2) > 1e-9*math.Abs(c0) {
		t.Errorf("mpix checksum %v, want %v", c2, c0)
	}
}

func TestOctoRejectsBadConfig(t *testing.T) {
	world := lci.NewWorld(1)
	err := world.Launch(func(rt *lci.Runtime) error {
		tr, err := rpc.NewLCITransport(rt, 1)
		if err != nil {
			return err
		}
		if _, err := amt.Run(tr, amt.Config{Depth: 0, GridSize: 8, Steps: 1, Threads: 1}); err == nil {
			t.Error("depth 0 accepted")
		}
		if _, err := amt.Run(tr, amt.Config{Depth: 2, GridSize: 2, Steps: 1, Threads: 1}); err == nil {
			t.Error("grid 2 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
