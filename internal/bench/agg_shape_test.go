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
	// Best-of-3: on small (even single-core) CI machines the wall clock
	// of one run is dominated by which spinning goroutine holds the core,
	// not by the path under test; the best run is the one with the least
	// scheduler interference.
	mode := func(mode string, iters int) func() bench.AggResult {
		return func() bench.AggResult {
			var best bench.AggResult
			for rep := 0; rep < 3; rep++ {
				r, err := bench.AggRate(lci.SimExpanse(), threads, iters, mode)
				if err != nil {
					t.Fatal(err)
				}
				if r.RateMps > best.RateMps {
					best = r
				}
			}
			t.Logf("%v", best)
			return best
		}
	}
	// Each attempt measures both pairs, alternating which side of each
	// goes first.
	res := remeasure(2, func(attempt int) [4]bench.AggResult {
		coalesce := paired(attempt, mode("agg", itersAgg), mode("naive", itersNaive))
		homing := paired(attempt, mode("local", itersAgg), mode("cross", itersAgg))
		return [4]bench.AggResult{coalesce[0], coalesce[1], homing[0], homing[1]}
	}, func(r [4]bench.AggResult) bool {
		return r[0].RateMps >= 3*r[1].RateMps && r[2].RateMps >= 1.2*r[3].RateMps
	})
	agg, naive, local, cross := res[0], res[1], res[2], res[3]
	meta := bench.Meta{Threads: threads, Platform: lci.SimExpanse().Name}
	if err := bench.WriteJSON("agg", meta, res[:]); err != nil {
		t.Logf("bench artifact not written: %v", err)
	}
	if agg.RateMps < 3*naive.RateMps {
		t.Errorf("expected aggregated record rate >= 3x naive per-record posts, got %.3f vs %.3f Mrec/s (%.2fx)",
			agg.RateMps, naive.RateMps, agg.RateMps/naive.RateMps)
	}
	if local.RateMps < 1.2*cross.RateMps {
		t.Errorf("expected local buffer homing >= 1.2x cross-NUMA homing, got %.3f vs %.3f Mrec/s (%.2fx)",
			local.RateMps, cross.RateMps, local.RateMps/cross.RateMps)
	}
}
