// kmer runs a small end-to-end k-mer counting job (the paper's §6.3
// mini-app) over the LCW client layer: 4 simulated ranks, 2 worker
// threads each, the LCI backend, and prints the occurrence histogram
// with a check against the sequential oracle.
package main

import (
	"fmt"
	"log"
	"sort"

	"lci"
	"lci/internal/kmer"
	"lci/internal/lcw"
)

func main() {
	const ranks, threads = 4, 2
	cfg := kmer.Config{
		Reads: kmer.ReadsConfig{
			GenomeLen: 30_000, ReadLen: 100, NumReads: 3_000,
			ErrorRate: 0.01, Seed: 11,
		},
		K: 31, Threads: threads, AggBytes: 8192, BloomBitsPerKmer: 64,
	}

	job, err := lcw.NewJob(lcw.AppConfig(lcw.LCI, ranks, threads), lci.SimExpanse())
	if err != nil {
		log.Fatal(err)
	}
	defer job.Close()

	results := make([]kmer.Result, ranks)
	err = job.Launch(func(c *lcw.Comm) error {
		res, err := kmer.Run(c, cfg)
		results[c.Rank()] = res
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	hist := map[int64]int64{}
	var distinct int64
	for _, r := range results {
		for c, n := range r.Histogram {
			hist[c] += n
		}
		distinct += r.Distinct
	}
	wantHist, wantDistinct, _ := kmer.SequentialOracle(cfg)

	fmt.Printf("distinct k-mers with >=2 occurrences: %d (oracle: %d)\n", distinct, wantDistinct)
	var counts []int64
	for c := range hist {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	fmt.Println("occurrences  #kmers  oracle")
	shown := 0
	for _, c := range counts {
		if shown >= 10 {
			fmt.Println("...")
			break
		}
		fmt.Printf("%11d  %6d  %6d\n", c, hist[c], wantHist[c])
		shown++
	}
	if distinct != wantDistinct {
		log.Fatalf("MISMATCH vs oracle: %d != %d", distinct, wantDistinct)
	}
	fmt.Println("histogram matches the sequential oracle")
}
