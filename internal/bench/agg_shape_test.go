package bench_test

import (
	"testing"

	"lci"
	"lci/internal/bench"
)

// TestAggShape is the standing aggregation gate, guarding the two claims
// the layer exists for. First, coalescing: pushing 16-byte records
// through internal/agg (one eager post per full batch) must beat naive
// per-record PostAM by at least 3x in delivered-record rate at 8 threads
// — the amortized doorbell/per-packet costs are the margin. Second, NUMA
// homing: with the platform topology applied, device-local buffer homing
// (HomeDevice) must beat the adversarial farthest-domain homing
// (HomeFarthest) by at least 1.2x — the modeled remote-memory append
// penalty is the margin. Measured points go to BENCH_agg.json, which
// cmd/lci-benchgate gates against the committed baseline.
func TestAggShape(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregation comparison is not short")
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios")
	}
	const threads = 8
	// The aggregated modes move records cheaply, so they need volume for
	// the modeled per-record costs to dominate scheduler noise; naive pays
	// the full per-message NIC cost and is slow but stable at low volume.
	const itersAgg, itersNaive = 50000, 4000
	mode := func(mode string, iters int) bench.Workload {
		return bench.AggRate(lci.SimExpanse(), threads, iters, mode)
	}
	// Gate on each row's best round: on small (even single-core) CI
	// machines the wall clock of one round is dominated by which spinning
	// goroutine holds the core, not by the path under test; the best round
	// is the one with the least scheduler interference.
	res := remeasure(2, func(attempt int) []bench.Row {
		return run(t, attempt, mode("agg", itersAgg), mode("naive", itersNaive), mode("local", itersAgg), mode("cross", itersAgg))
	}, func(r []bench.Row) bool {
		return r[0].Max >= 3*r[1].Max && r[2].Max >= 1.2*r[3].Max
	})
	write(t, "agg", res)
	agg, naive, local, cross := res[0], res[1], res[2], res[3]
	if agg.Max < 3*naive.Max {
		t.Errorf("expected aggregated record rate >= 3x naive per-record posts, got %.3f vs %.3f Mrec/s (%.2fx)",
			agg.Max, naive.Max, agg.Max/naive.Max)
	}
	if local.Max < 1.2*cross.Max {
		t.Errorf("expected local buffer homing >= 1.2x cross-NUMA homing, got %.3f vs %.3f Mrec/s (%.2fx)",
			local.Max, cross.Max, local.Max/cross.Max)
	}
}
