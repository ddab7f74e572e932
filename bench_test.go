// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark iteration performs one complete
// measurement at the stated configuration and reports the paper's metric
// via b.ReportMetric:
//
//	Table 1 — exercised by TestTable1PostCommMatrix (validity matrix);
//	Fig. 3  — BenchmarkFig3MessageRateProcess   (Mmsg/s, process mode)
//	Fig. 4  — BenchmarkFig4MessageRateThread    (Mmsg/s, thread modes)
//	Fig. 5  — BenchmarkFig5BandwidthThread      (GB/s vs message size)
//	Fig. 6  — BenchmarkFig6Resource             (Mops vs threads)
//	Fig. 7  — BenchmarkFig7KmerCounting         (seconds, strong scaling)
//	Fig. 8  — BenchmarkFig8OctoTiger            (seconds/step, strong scaling)
//
// cmd/lci-bench (Figs. 3-6), cmd/lci-kmer and cmd/lci-octo run the
// same experiments at larger scales and print the series the paper plots;
// EXPERIMENTS.md records paper-vs-measured shapes.
package lci_test

import (
	"fmt"
	"testing"

	"lci"
	"lci/internal/amt"
	"lci/internal/bench"
	"lci/internal/core"
	"lci/internal/kmer"
	"lci/internal/lcw"
	"lci/internal/topo"
)

// benchPlatforms returns the evaluation platforms (both simulated).
func benchPlatforms() []lci.Platform { return lci.Platforms() }

// report measures the workloads with bench.Run and reports each row's
// median rate under its unit, suffixed with the row's position when
// there are several.
func report(b *testing.B, ws ...bench.Workload) {
	b.Helper()
	rows, err := bench.Run(0, ws...)
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range rows {
		unit := r.Unit
		if len(rows) > 1 {
			unit = fmt.Sprintf("%s-%d", r.Unit, i)
		}
		b.ReportMetric(r.Median, unit)
	}
}

// BenchmarkFig3MessageRateProcess: process-based message rate, 8-byte
// messages, one single-threaded rank pair per "core" (§6.2.1).
func BenchmarkFig3MessageRateProcess(b *testing.B) {
	for _, plat := range benchPlatforms() {
		for _, kind := range []lcw.Kind{lcw.LCI, lcw.MPI, lcw.GASNET} {
			for _, pairs := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/%s/pairs=%d", plat.Name, kind, pairs)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						cfg := lcw.Config{Kind: kind, Ranks: 2 * pairs, ThreadsPerRank: 1}
						report(b, bench.MessageRate(cfg, plat, 3000, "process"))
					}
				})
			}
		}
	}
}

// BenchmarkFig4MessageRateThread: thread-based message rate with
// dedicated and shared resources (§6.2.2, Figure 4).
func BenchmarkFig4MessageRateThread(b *testing.B) {
	type series struct {
		kind      lcw.Kind
		dedicated bool
	}
	for _, plat := range benchPlatforms() {
		for _, s := range []series{
			{lcw.LCI, true}, {lcw.LCI, false},
			{lcw.MPIX, true}, {lcw.MPI, false},
			{lcw.GASNET, false},
		} {
			for _, threads := range []int{1, 4, 8} {
				mode := "shared"
				if s.dedicated {
					mode = "dedicated"
				}
				name := fmt.Sprintf("%s/%s/%s/threads=%d", plat.Name, s.kind, mode, threads)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						cfg := lcw.Config{Kind: s.kind, Ranks: 2, ThreadsPerRank: threads, Dedicated: s.dedicated}
						report(b, bench.MessageRate(cfg, plat, 2000, "thread-"+mode))
					}
				})
			}
		}
	}
}

// BenchmarkMessageRateDevices: multi-device message rate at a fixed
// thread count, sweeping the LCI device-pool size (the standing devscale
// gate in internal/bench runs the same sweep and writes
// BENCH_devscale.json).
func BenchmarkMessageRateDevices(b *testing.B) {
	const threads = 8
	for _, plat := range benchPlatforms() {
		for _, devices := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/threads=%d/devices=%d", plat.Name, threads, devices)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := lcw.Config{Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: threads, Devices: devices}
					report(b, bench.MessageRate(cfg, plat, 2000, "multi-device"))
				}
			})
		}
	}
}

// BenchmarkMessageRateLocality: NUMA-placement message rate at a fixed
// thread count — the locality-aware placement versus the worst-case
// placement on each platform's synthetic node topology scaled to the
// thread count (the standing TestNumaPlacementShape gate runs the
// 2-domain comparison and writes BENCH_numa.json).
func BenchmarkMessageRateLocality(b *testing.B) {
	const threads, devices = 8, 4
	for _, plat := range benchPlatforms() {
		for _, domains := range []int{2, 4} {
			tp := topo.Uniform(domains, threads/domains)
			for _, mode := range []string{"local", "worst"} {
				var place core.Placement = core.LocalPlacement{}
				if mode == "worst" {
					place = core.WorstPlacement{}
				}
				name := fmt.Sprintf("%s/domains=%d/%s", plat.Name, domains, mode)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						cfg := lcw.Config{Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: threads, Devices: devices, Topology: tp, Placement: place}
						report(b, bench.MessageRate(cfg, plat, 2000, "numa-"+mode))
					}
				})
			}
		}
	}
}

// BenchmarkCollectiveLatency: graph-driven collective rate, the inverse
// of latency (barrier, 8-byte and 64-KiB allreduce as Mops-0..2), across
// rank counts on both platforms (the
// standing TestCollShape gate runs the 8-rank point plus the placement
// comparison and writes BENCH_coll.json).
func BenchmarkCollectiveLatency(b *testing.B) {
	for _, plat := range benchPlatforms() {
		for _, ranks := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/ranks=%d", plat.Name, ranks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					report(b, bench.CollectiveLatency(plat, ranks, 500)...)
				}
			})
		}
	}
}

// BenchmarkFig5BandwidthThread: thread-based bandwidth over message sizes
// (§6.2.2, Figure 5). The paper fixes 64 threads; the bench uses 8 to fit
// CI machines — cmd/lci-bench sweeps the full range.
func BenchmarkFig5BandwidthThread(b *testing.B) {
	type series struct {
		kind      lcw.Kind
		dedicated bool
	}
	for _, plat := range benchPlatforms() {
		for _, s := range []series{{lcw.LCI, true}, {lcw.LCI, false}, {lcw.MPIX, true}, {lcw.MPI, false}} {
			for _, size := range []int{16, 4096, 65536, 1 << 20} {
				mode := "shared"
				if s.dedicated {
					mode = "dedicated"
				}
				iters := 200
				if size >= 1<<20 {
					iters = 40
				}
				name := fmt.Sprintf("%s/%s/%s/size=%d", plat.Name, s.kind, mode, size)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						report(b, bench.BandwidthThread(s.kind, plat, 8, iters, size, s.dedicated))
					}
				})
			}
		}
	}
}

// BenchmarkFig6Resource: maximum throughput of individual LCI resources
// over thread counts (§6.2.3, Figure 6).
func BenchmarkFig6Resource(b *testing.B) {
	for _, res := range []string{"packet", "matching", "cq", "cq-fixed"} {
		for _, threads := range []int{1, 4, 8, 16} {
			name := fmt.Sprintf("%s/threads=%d", res, threads)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					report(b, bench.ResourceThroughput(res, threads, 200_000))
				}
			})
		}
	}
}

// kmerBenchConfig is the Figure 7 workload at bench scale.
func kmerBenchConfig(threads int) kmer.Config {
	return kmer.Config{
		Reads: kmer.ReadsConfig{
			GenomeLen: 60_000, ReadLen: 100, NumReads: 6_000,
			ErrorRate: 0.01, Seed: 7,
		},
		K: 31, Threads: threads, AggBytes: 8192, BloomBitsPerKmer: 12,
	}
}

// appJob builds the job a mini-app benchmark runs on.
func appJob(b *testing.B, cfg lcw.Config) *lcw.Job {
	job, err := lcw.NewJob(cfg, lci.SimExpanse())
	if err != nil {
		b.Fatal(err)
	}
	return job
}

// BenchmarkFig7KmerCounting: k-mer counting strong scaling (§6.3,
// Figure 7): multithreaded LCI and GASNet backends (2 ranks/node, the
// paper's layout) versus the single-threaded one-rank-per-core reference.
func BenchmarkFig7KmerCounting(b *testing.B) {
	const threadsPerRank = 4
	run := func(b *testing.B, kind lcw.Kind, ranks, threads int) {
		job := appJob(b, lcw.AppConfig(kind, ranks, threads))
		defer job.Close()
		cfg := kmerBenchConfig(threads)
		if err := job.Launch(func(c *lcw.Comm) error {
			_, err := kmer.Run(c, cfg)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	for _, nodes := range []int{1, 2} {
		b.Run(fmt.Sprintf("lci/nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, lcw.LCI, 2*nodes, threadsPerRank)
			}
		})
		b.Run(fmt.Sprintf("gasnet/nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, lcw.GASNET, 2*nodes, threadsPerRank)
			}
		})
		b.Run(fmt.Sprintf("reference-1rank-per-core/nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// HipMer/UPC++ layout: one single-threaded rank per core
				// (2*threadsPerRank "cores" per node here).
				run(b, lcw.GASNET, 2*threadsPerRank*nodes, 1)
			}
		})
	}
}

// BenchmarkFig8OctoTiger: AMT mini-app strong scaling (§6.4, Figure 8):
// lci vs mpi (one VCI) vs mpix (VCI per thread), seconds per step.
func BenchmarkFig8OctoTiger(b *testing.B) {
	const threads = 8
	cfg := amt.Config{Depth: 3, GridSize: 8, Steps: 5, Threads: threads}
	run := func(b *testing.B, kind lcw.Kind, ranks int) float64 {
		job := appJob(b, amt.JobConfig(kind, ranks, cfg))
		defer job.Close()
		var perStep float64
		if err := job.Launch(func(c *lcw.Comm) error {
			res, err := amt.Run(c, cfg)
			if c.Rank() == 0 {
				perStep = res.TimePerStep.Seconds()
			}
			return err
		}); err != nil {
			b.Fatal(err)
		}
		return perStep
	}
	for _, ranks := range []int{1, 2, 4} {
		for _, kind := range []lcw.Kind{lcw.LCI, lcw.MPI, lcw.MPIX} {
			b.Run(fmt.Sprintf("%s/nodes=%d", kind, ranks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.ReportMetric(run(b, kind, ranks), "s/step")
				}
			})
		}
	}
}
