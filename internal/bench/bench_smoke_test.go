package bench_test

import (
	"testing"

	"lci"
	"lci/internal/amt"
	"lci/internal/bench"
	"lci/internal/core"
	"lci/internal/kmer"
	"lci/internal/lcw"
	"lci/internal/topo"
)

// TestFig4Shape is the reproduction's headline assertion: with many
// threads, LCI's dedicated-device mode beats standard MPI's shared mode
// by a wide margin (the paper reports >10x at scale; we require >2x at a
// modest thread count to stay robust on small CI machines). The measured
// points are written to BENCH_fig4.json so the perf trajectory is tracked
// run over run.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multithreaded rate comparison is not short")
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios")
	}
	const threads, iters = 8, 12000
	rate := func(kind lcw.Kind, dedicated bool, mode string) bench.Workload {
		cfg := lcw.Config{Kind: kind, Ranks: 2, ThreadsPerRank: threads, Dedicated: dedicated}
		return bench.MessageRate(cfg, lci.SimExpanse(), iters, mode)
	}
	res := remeasure(2, func(attempt int) []bench.Row {
		return run(t, attempt, rate(lcw.LCI, true, "thread-dedicated"), rate(lcw.MPI, false, "thread-shared"))
	}, func(r []bench.Row) bool { return r[0].Median >= 2*r[1].Median })
	write(t, "fig4", res)
	if lciRes, mpiRes := res[0], res[1]; lciRes.Median < 2*mpiRes.Median {
		t.Errorf("expected LCI dedicated >> MPI shared, got %.3f vs %.3f Mmsg/s",
			lciRes.Median, mpiRes.Median)
	}
}

// TestDevScaleShape is the multi-device scaling gate: at a fixed thread
// count, growing the LCI device pool must grow the message rate — the
// paper's second scalability lever beyond lock-light resources (injection
// and progress parallelize across devices instead of serializing on one
// CQ/packet-pool/pre-post set). The gate requires the 4-device rate to be
// at least 1.5x the 1-device rate at 8 threads and the sweep to be
// monotonically non-regressing (a small tolerance absorbs timer noise on
// loaded CI machines); measured points go to BENCH_devscale.json.
func TestDevScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-device rate sweep is not short")
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios")
	}
	const threads, iters = 8, 10000
	const slack = 0.90 // adjacent-point tolerance for timer noise
	devices := []int{1, 2, 4}
	gateOK := func(rs []bench.Row) bool {
		for i := 1; i < len(rs); i++ {
			if rs[i].Median < slack*rs[i-1].Median {
				return false
			}
		}
		return rs[len(rs)-1].Median >= 1.5*rs[0].Median
	}
	results := remeasure(2, func(attempt int) []bench.Row {
		var ws []bench.Workload
		for _, d := range devices {
			cfg := lcw.Config{Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: threads, Devices: d}
			ws = append(ws, bench.MessageRate(cfg, lci.SimExpanse(), iters, "multi-device"))
		}
		return run(t, attempt, ws...)
	}, gateOK)
	write(t, "devscale", results)
	// Monotone within the slack between adjacent points...
	for i := 1; i < len(results); i++ {
		if results[i].Median < slack*results[i-1].Median {
			t.Errorf("device scaling regressed: %d devices = %.3f Mmsg/s < %d devices = %.3f Mmsg/s",
				devices[i], results[i].Median, devices[i-1], results[i-1].Median)
		}
	}
	// ...and a hard 1.5x end-to-end gate.
	if r1, r4 := results[0].Median, results[len(results)-1].Median; r4 < 1.5*r1 {
		t.Errorf("expected >=1.5x rate at 4 devices vs 1, got %.3f vs %.3f Mmsg/s (%.2fx)",
			r4, r1, r4/r1)
	}
}

// TestNumaPlacementShape is the standing NUMA-placement gate: on a
// synthetic 2-domain topology with a 4-device pool and 8 threads, the
// locality-aware placement (threads pinned to same-domain devices) must
// beat the worst-case placement (every thread pinned to the far domain's
// devices) by at least 1.3x. The only difference between the two runs is
// which devices threads pin to — the cross-domain penalty the provider
// sims charge (CrossDomainNs per topology hop on every post and non-empty
// progress round) is what separates them, so this gate is what keeps the
// penalty model and the placement machinery honest end to end. Measured
// points go to BENCH_numa.json.
func TestNumaPlacementShape(t *testing.T) {
	if testing.Short() {
		t.Skip("NUMA placement comparison is not short")
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios")
	}
	const threads, devices, iters = 8, 4, 8000
	tp := topo.Uniform(2, threads/2) // 2 domains, cores 0-3 / 4-7
	place := func(p core.Placement, mode string) bench.Workload {
		cfg := lcw.Config{Kind: lcw.LCI, Ranks: 2, ThreadsPerRank: threads, Devices: devices, Topology: tp, Placement: p}
		return bench.MessageRate(cfg, lci.SimExpanse(), iters, mode)
	}
	res := remeasure(2, func(attempt int) []bench.Row {
		return run(t, attempt, place(core.LocalPlacement{}, "numa-local"), place(core.WorstPlacement{}, "numa-worst"))
	}, func(r []bench.Row) bool { return r[0].Median >= 1.3*r[1].Median })
	write(t, "numa", res)
	if local, worst := res[0], res[1]; local.Median < 1.3*worst.Median {
		t.Errorf("expected local placement >= 1.3x worst-case remote placement, got %.3f vs %.3f Mmsg/s (%.2fx)",
			local.Median, worst.Median, local.Median/worst.Median)
	}
}

// TestCollShape is the standing collectives gate, in three parts.
//
// Correctness: allreduce/broadcast/reduce/allgather results must be
// bit-correct across 2–8 ranks × 1–8 threads per rank on both platforms,
// under every algorithm the selection layer can pick (including forced
// choices and rendezvous-sized payloads) — bench.CollCorrectness drives
// the matrix with per-thread affinities so placement is exercised too.
//
// Overlap: a nonblocking IAllreduce must actually overlap — rank 0
// completes a p2p exchange while its allreduce is in flight, which rank 1
// joins only after the p2p finishes; a blocking collective deadlocks
// here (bench.CollOverlap).
//
// Placement: on SimExpanse, the 8-thread (one driving goroutine per
// rank) placement-aware barrier must beat the worst-placement one by at
// least 1.3x — the collective rides the affinity's same-domain device,
// so the provider's cross-domain penalty separates the two runs.
// Latency and locality points are written to BENCH_coll.json, which
// cmd/lci-benchgate gates against the committed baseline. The
// correctness and overlap parts run under -race too; the timing
// comparison and artifact are skipped there like every other shape gate.
func TestCollShape(t *testing.T) {
	if testing.Short() {
		t.Skip("collective matrix + latency comparison is not short")
	}
	for _, plat := range lci.Platforms() {
		for _, ranks := range []int{2, 3, 5, 8} {
			for _, threads := range []int{1, 2, 8} {
				if err := bench.CollCorrectness(plat, ranks, threads); err != nil {
					t.Errorf("collective correctness %s ranks=%d threads=%d: %v", plat.Name, ranks, threads, err)
				}
			}
		}
		if err := bench.CollOverlap(plat); err != nil {
			t.Errorf("nonblocking overlap on %s: %v", plat.Name, err)
		}
	}
	if t.Failed() {
		return
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios (correctness and overlap verified above)")
	}
	const ranks, devices, iters = 8, 2, 2000
	tp := topo.Uniform(2, 4)
	place := func(worst bool) bench.Workload {
		return bench.CollectiveLocality(lci.SimExpanse(), tp, ranks, devices, iters, worst)
	}
	res := remeasure(2, func(attempt int) []bench.Row {
		return run(t, attempt, place(false), place(true))
	}, func(r []bench.Row) bool { return r[0].Median >= 1.3*r[1].Median })
	lat := run(t, 0, bench.CollectiveLatency(lci.SimExpanse(), ranks, iters)...)
	write(t, "coll", append(lat, res...))
	if local, worst := res[0], res[1]; local.Median < 1.3*worst.Median {
		t.Errorf("expected placement-aware barrier >= 1.3x worst placement, got %.5f vs %.5f Mops (%.2fx)",
			local.Median, worst.Median, local.Median/worst.Median)
	}
}

// TestFig6Shape asserts the resource-throughput ordering of Figure 6:
// packet pool > matching engine > completion queue at high thread counts.
// The measured points, with the fixed-capacity queue (cq-fixed) alongside
// the growable one, are written to BENCH_fig6.json.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("resource throughput comparison is not short")
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios")
	}
	const threads, iters = 8, 200_000
	res := run(t, 0,
		bench.ResourceThroughput("packet", threads, iters),
		bench.ResourceThroughput("matching", threads, iters),
		bench.ResourceThroughput("cq", threads, iters/4),
		bench.ResourceThroughput("cq-fixed", threads, iters/4))
	write(t, "fig6", res)
	if pool, match, cq := res[0], res[1], res[2]; !(pool.Median > match.Median && match.Median > cq.Median) {
		t.Errorf("expected pool > matching > cq, got %.1f / %.1f / %.1f Mops",
			pool.Median, match.Median, cq.Median)
	}
}

// TestAppWorkloads runs the Figure 7 and Figure 8 workloads at a tiny
// configuration over LCI and one baseline each: every row must carry all
// its rounds and a positive rate in each.
func TestAppWorkloads(t *testing.T) {
	kcfg := kmer.Config{K: 31, Threads: 2,
		Reads: kmer.ReadsConfig{GenomeLen: 2_000, ReadLen: 100, NumReads: 200, ErrorRate: 0.01, Seed: 7}}
	acfg := amt.Config{Depth: 1, GridSize: 4, Steps: 2, Threads: 2}
	plat := lci.SimExpanse()
	rows := run(t, 0,
		bench.KmerRate(lcw.LCI, plat, 1, 2, kcfg), bench.KmerRate(lcw.GASNET, plat, 1, 2, kcfg),
		bench.AMTRate(lcw.LCI, plat, 2, acfg), bench.AMTRate(lcw.MPI, plat, 2, acfg))
	for _, r := range rows {
		if r.Rounds != bench.Rounds || !(r.Min > 0) {
			t.Errorf("%v: want %d rounds, each with a positive rate", r, bench.Rounds)
		}
	}
}
