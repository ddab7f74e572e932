package bench

import (
	"slices"
	"time"

	"lci"
	"lci/internal/amt"
	"lci/internal/kmer"
	"lci/internal/lcw"
)

// KmerRate is Figure 7's workload: one run of the k-mer counting
// pipeline (kmer.Run) over kind on nodes × ranksPerNode ranks of
// cfg.Threads worker threads each, as the dataset's k-mers counted per
// second by the slowest rank.
func KmerRate(kind lcw.Kind, platform lci.Platform, nodes, ranksPerNode int, cfg kmer.Config) Workload {
	ranks := nodes * ranksPerNode
	kmers := int64(cfg.Reads.NumReads) * int64(max(cfg.Reads.ReadLen-cfg.K+1, 0))
	return workload("Mkmer/s", func() (int64, time.Duration, error) {
		elapsed, err := slowest(lcw.AppConfig(kind, ranks, cfg.Threads), platform, func(c *lcw.Comm) (time.Duration, error) {
			res, err := kmer.Run(c, cfg)
			return res.Elapsed, err
		})
		return kmers, elapsed, err
	}, "%s %s kmer nodes=%d threads=%d", kind, platform.Name, nodes, cfg.Threads)
}

// AMTRate is Figure 8's workload: one run of the Octo-Tiger-like AMT
// mini-app (amt.Run) over kind on one rank per node, as simulation steps
// per second of the slowest rank.
func AMTRate(kind lcw.Kind, platform lci.Platform, nodes int, cfg amt.Config) Workload {
	w := workload("steps/s", func() (int64, time.Duration, error) {
		elapsed, err := slowest(amt.JobConfig(kind, nodes, cfg), platform, func(c *lcw.Comm) (time.Duration, error) {
			res, err := amt.Run(c, cfg)
			return res.Elapsed, err
		})
		return int64(cfg.Steps), elapsed, err
	}, "%s %s amt nodes=%d threads=%d", kind, platform.Name, nodes, cfg.Threads)
	w.perUnit = 1
	return w
}

// slowest runs body on every rank of a fresh job and returns the longest
// time a rank reported.
func slowest(cfg lcw.Config, platform lci.Platform, body func(*lcw.Comm) (time.Duration, error)) (time.Duration, error) {
	job, err := lcw.NewJob(cfg, platform)
	if err != nil {
		return 0, err
	}
	defer job.Close()
	times := make([]time.Duration, cfg.Ranks)
	err = job.Launch(func(c *lcw.Comm) error {
		d, err := body(c)
		times[c.Rank()] = d
		return err
	})
	return slices.Max(times), err
}
