// lci-kmer regenerates Figure 7 of the paper: k-mer counting strong
// scaling, comparing the multithreaded implementation over LCI and the
// GASNet-EX-like baseline (2 ranks per node) against the single-threaded
// one-rank-per-core reference (the HipMer/UPC++ layout).
//
// Usage:
//
//	lci-kmer -maxnodes 4 -threads 4 -reads 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"lci"
	"lci/internal/core"
	"lci/internal/kmer"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/rpc"
)

var (
	maxNodes = flag.Int("maxnodes", 4, "largest node count in the sweep")
	threads  = flag.Int("threads", 4, "worker threads per multithreaded rank")
	reads    = flag.Int("reads", 20_000, "total reads in the dataset")
	genome   = flag.Int("genome", 100_000, "synthetic genome length")
	kflag    = flag.Int("k", 31, "k-mer length")
)

func config(threads int) kmer.Config {
	return kmer.Config{
		Reads: kmer.ReadsConfig{
			GenomeLen: *genome, ReadLen: 100, NumReads: *reads,
			ErrorRate: 0.01, Seed: 7,
		},
		K: *kflag, Threads: threads, AggBytes: 8192, BloomBitsPerKmer: 12,
	}
}

func runLCI(nodes int) (time.Duration, error) {
	ranks := 2 * nodes
	cfg := config(*threads)
	world := lci.NewWorld(ranks, lci.WithRuntimeConfig(core.Config{PacketsPerWorker: 256, PreRecvs: 64}))
	var worst time.Duration
	var mu sync.Mutex
	err := world.Launch(func(rt *lci.Runtime) error {
		tr, err := rpc.NewLCITransport(rt, *threads)
		if err != nil {
			return err
		}
		res, err := kmer.Run(tr, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		if res.Elapsed > worst {
			worst = res.Elapsed
		}
		mu.Unlock()
		return nil
	})
	return worst, err
}

func runGASNet(nodes, thr, ranksPerNode int) (time.Duration, error) {
	ranks := ranksPerNode * nodes
	cfg := config(thr)
	plat := lci.SimExpanse()
	fab := fabric.New(fabric.Config{NumRanks: ranks})
	trs := make([]*rpc.GASNetTransport, ranks)
	for r := 0; r < ranks; r++ {
		trs[r] = rpc.NewGASNetTransport(nic.NewDomain(fab, r, plat.Provider))
	}
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	times := make([]time.Duration, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, err := kmer.Run(trs[r], cfg)
			times[r], errs[r] = res.Elapsed, err
		}(r)
	}
	wg.Wait()
	var worst time.Duration
	for r := range errs {
		if errs[r] != nil {
			return 0, errs[r]
		}
		if times[r] > worst {
			worst = times[r]
		}
	}
	return worst, nil
}

func main() {
	flag.Parse()
	fmt.Println("== Figure 7: k-mer counting strong scaling ==")
	fmt.Printf("dataset: %d reads x 100 bp, k=%d, agg=8KB\n", *reads, *kflag)
	for nodes := 1; nodes <= *maxNodes; nodes *= 2 {
		if d, err := runLCI(nodes); err == nil {
			fmt.Printf("lci        nodes=%-3d threads=%-3d time=%8.3fs\n", nodes, *threads, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "lci error:", err)
		}
		if d, err := runGASNet(nodes, *threads, 2); err == nil {
			fmt.Printf("gasnet     nodes=%-3d threads=%-3d time=%8.3fs\n", nodes, *threads, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "gasnet error:", err)
		}
		// Reference: one single-threaded rank per "core".
		if d, err := runGASNet(nodes, 1, 2**threads); err == nil {
			fmt.Printf("reference  nodes=%-3d ranks/node=%-3d time=%8.3fs\n", nodes, 2**threads, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "reference error:", err)
		}
	}
}
