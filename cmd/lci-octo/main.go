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
	"slices"
	"time"

	"lci"
	"lci/internal/amt"
	"lci/internal/lcw"
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

// run runs the mini-app once over kind and returns the slowest rank's
// time per step.
func run(kind lcw.Kind, ranks int) (time.Duration, error) {
	job, err := lcw.NewJob(amt.JobConfig(kind, ranks, cfg()), platform())
	if err != nil {
		return 0, err
	}
	defer job.Close()
	perStep := make([]time.Duration, ranks)
	err = job.Launch(func(c *lcw.Comm) error {
		res, err := amt.Run(c, cfg())
		perStep[c.Rank()] = res.TimePerStep
		return err
	})
	return slices.Max(perStep), err
}

func main() {
	flag.Parse()
	fmt.Printf("== Figure 8: Octo-Tiger-like AMT strong scaling (%s) ==\n", *platName)
	fmt.Printf("octree depth=%d (%d leaves), grid=%d^3, steps=%d, threads=%d\n",
		*depth, 1<<(3**depth), *grid, *steps, *threads)
	for nodes := 1; nodes <= *maxNodes; nodes *= 2 {
		for _, kind := range []lcw.Kind{lcw.LCI, lcw.MPI, lcw.MPIX} {
			if d, err := run(kind, nodes); err == nil {
				fmt.Printf("%-5s nodes=%-3d time/step=%9.4fs\n", kind, nodes, d.Seconds())
			} else {
				fmt.Fprintf(os.Stderr, "%s error: %v\n", kind, err)
			}
		}
	}
}
