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
	"slices"
	"time"

	"lci"
	"lci/internal/kmer"
	"lci/internal/lcw"
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

// run runs the pipeline once over kind with thr worker threads per rank
// and returns the slowest rank's time.
func run(kind lcw.Kind, ranks, thr int) (time.Duration, error) {
	job, err := lcw.NewJob(lcw.AppConfig(kind, ranks, thr), lci.SimExpanse())
	if err != nil {
		return 0, err
	}
	defer job.Close()
	cfg := config(thr)
	times := make([]time.Duration, ranks)
	err = job.Launch(func(c *lcw.Comm) error {
		res, err := kmer.Run(c, cfg)
		times[c.Rank()] = res.Elapsed
		return err
	})
	return slices.Max(times), err
}

func main() {
	flag.Parse()
	fmt.Println("== Figure 7: k-mer counting strong scaling ==")
	fmt.Printf("dataset: %d reads x 100 bp, k=%d, agg=8KB\n", *reads, *kflag)
	for nodes := 1; nodes <= *maxNodes; nodes *= 2 {
		if d, err := run(lcw.LCI, 2*nodes, *threads); err == nil {
			fmt.Printf("lci        nodes=%-3d threads=%-3d time=%8.3fs\n", nodes, *threads, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "lci error:", err)
		}
		if d, err := run(lcw.GASNET, 2*nodes, *threads); err == nil {
			fmt.Printf("gasnet     nodes=%-3d threads=%-3d time=%8.3fs\n", nodes, *threads, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "gasnet error:", err)
		}
		// Reference: one single-threaded rank per "core".
		if d, err := run(lcw.GASNET, 2**threads*nodes, 1); err == nil {
			fmt.Printf("reference  nodes=%-3d ranks/node=%-3d time=%8.3fs\n", nodes, 2**threads, d.Seconds())
		} else {
			fmt.Fprintln(os.Stderr, "reference error:", err)
		}
	}
}
