// lci-octo regenerates Figure 8 of the paper: strong scaling of the
// Octo-Tiger-like AMT mini-app comparing the LCI parcelport against
// standard MPI (one VCI) and MPICH with the VCI extension (mpix),
// reporting time per simulation step.
//
// Usage:
//
//	lci-octo -maxnodes 8 -threads 8 -depth 3 -grid 8 -steps 10
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"lci"
	"lci/internal/amt"
	"lci/internal/core"
	"lci/internal/mpibase"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/rpc"
)

var (
	maxNodes = flag.Int("maxnodes", 8, "largest node count")
	threads  = flag.Int("threads", 8, "worker threads per rank")
	depth    = flag.Int("depth", 3, "octree depth (8^depth leaves)")
	grid     = flag.Int("grid", 8, "subgrid edge length")
	steps    = flag.Int("steps", 10, "simulation steps")
	platName = flag.String("platform", "SimExpanse", "SimExpanse or SimDelta")
)

func platform() lci.Platform {
	for _, p := range lci.Platforms() {
		if p.Name == *platName {
			return p
		}
	}
	fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platName)
	os.Exit(2)
	return lci.Platform{}
}

func cfg() amt.Config {
	return amt.Config{Depth: *depth, GridSize: *grid, Steps: *steps, Threads: *threads}
}

func runLCI(ranks int) (time.Duration, error) {
	world := lci.NewWorld(ranks, lci.WithPlatform(platform()),
		lci.WithRuntimeConfig(core.Config{PacketsPerWorker: 256, PreRecvs: 64}))
	var perStep time.Duration
	var mu sync.Mutex
	err := world.Launch(func(rt *lci.Runtime) error {
		tr, err := rpc.NewLCITransport(rt, *threads)
		if err != nil {
			return err
		}
		res, err := amt.Run(tr, cfg())
		mu.Lock()
		if res.TimePerStep > perStep {
			perStep = res.TimePerStep
		}
		mu.Unlock()
		return err
	})
	return perStep, err
}

func runMPI(ranks, vcis int) (time.Duration, error) {
	plat := platform()
	fab := fabric.New(fabric.Config{NumRanks: ranks})
	trs := make([]*rpc.MPITransport, ranks)
	for r := 0; r < ranks; r++ {
		m := mpibase.New(nic.NewDomain(fab, r, plat.Provider), mpibase.Config{
			NumVCIs: vcis, AssertNoAnyTag: true, AssertAllowOvertaking: true,
		})
		tr, err := rpc.NewMPITransport(m, *threads, 1<<16)
		if err != nil {
			return 0, err
		}
		trs[r] = tr
	}
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	results := make([]amt.Result, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = amt.Run(trs[r], cfg())
		}(r)
	}
	wg.Wait()
	var worst time.Duration
	for r := range errs {
		if errs[r] != nil {
			return 0, errs[r]
		}
		if results[r].TimePerStep > worst {
			worst = results[r].TimePerStep
		}
	}
	return worst, nil
}

func main() {
	flag.Parse()
	fmt.Printf("== Figure 8: Octo-Tiger-like AMT strong scaling (%s) ==\n", *platName)
	fmt.Printf("octree depth=%d (%d leaves), grid=%d^3, steps=%d, threads=%d\n",
		*depth, 1<<(3**depth), *grid, *steps, *threads)
	for nodes := 1; nodes <= *maxNodes; nodes *= 2 {
		if d, err := runLCI(nodes); err == nil {
			fmt.Printf("lci   nodes=%-3d time/step=%9.4fs\n", nodes, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "lci error:", err)
		}
		if d, err := runMPI(nodes, 1); err == nil {
			fmt.Printf("mpi   nodes=%-3d time/step=%9.4fs\n", nodes, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "mpi error:", err)
		}
		if d, err := runMPI(nodes, *threads); err == nil {
			fmt.Printf("mpix  nodes=%-3d time/step=%9.4fs\n", nodes, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "mpix error:", err)
		}
	}
}
