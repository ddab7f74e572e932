package bench_test

import (
	"testing"

	"lci"
	"lci/internal/bench"
)

// perRank normalizes a rank-scale row to per-rank latency: on an
// oversubscribed host n spinning goroutine-ranks serialize onto the same
// few cores, so raw wall time grows like n*f(n); 1/(rate·n) isolates the
// algorithmic factor f(n) regardless of core count. It takes the row's
// best round: on small CI machines one round's wall clock is dominated
// by which spinning goroutine-rank holds the cores; the best round has
// the least scheduler interference and is the closest to the modeled
// latency.
func perRank(r bench.Row, ranks int) float64 {
	return 1 / (r.Max * float64(ranks))
}

// rankScaleIters trims the iteration count as the world grows so the
// 256-rank points stay inside a CI time budget; the per-rank metric is
// taken from a rate, so points at different iteration counts compare.
func rankScaleIters(ranks int) int {
	switch {
	case ranks >= 256:
		return 10
	case ranks >= 128:
		return 12
	default:
		return 20
	}
}

// TestRankScaleShape is the standing rank-scaling gate, guarding the two
// claims the rank-scaling work exists for. First, log-depth collectives:
// per-rank barrier and 8-byte allreduce latency from 32 to 256 ranks
// must stay within a small constant of the ideal log2 growth
// (log2(256)/log2(32) = 1.6x) — a linear collective would grow >= 8x
// and trip the bound with a large margin.
// Second, bounded per-peer state: after a sparse 256-rank workload where
// every rank contacts exactly 8 peers, established provider endpoints
// (QPs on ibv, peer addresses on ofi) and fabric-tracked peers must
// equal 8 exactly on both platforms — eager establishment at world size
// would read 255. Measured points go to BENCH_rankscale.json, which
// cmd/lci-benchgate gates against the committed baseline.
func TestRankScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank sweep is not short")
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios")
	}
	// Ideal log-depth growth is log2(256)/log2(32) = 1.6x; the bound
	// allows ~1.6x on top for scheduler-handoff overhead, which grows
	// with the runnable-goroutine count when 256 spinning ranks share a
	// few cores. A linear-depth collective measures >= 12x here and
	// trips the gate with a ~5x margin.
	const ratioBound = 2.6

	// sweep measures the p2p, barrier and allreduce rows (in that order)
	// at every size.
	sweep := func(platform lci.Platform, sizes []int) map[int][]bench.Row {
		points := make(map[int][]bench.Row)
		for _, n := range sizes {
			points[n] = run(t, 0, bench.RankScale(platform, n, rankScaleIters(n))...)
		}
		return points
	}

	// round is one measurement of the whole sweep: its rows and whether
	// every 32->256 ratio is within the bound.
	type round struct {
		rows []bench.Row
		ok   bool
	}
	res := remeasure(3, func(int) round {
		r := round{ok: true}
		expanse := sweep(lci.SimExpanse(), []int{8, 32, 128, 256})
		delta := sweep(lci.SimDelta(), []int{32, 256})
		for _, n := range []int{8, 32, 128, 256} {
			r.rows = append(r.rows, expanse[n]...)
		}
		for _, n := range []int{32, 256} {
			r.rows = append(r.rows, delta[n]...)
		}
		// Rows 1 and 2 of RankScale's p2p, barrier, allreduce.
		for i, coll := range []string{"barrier", "allreduce"} {
			for name, pts := range map[string]map[int][]bench.Row{"SimExpanse": expanse, "SimDelta": delta} {
				got := perRank(pts[256][i+1], 256) / perRank(pts[32][i+1], 32)
				t.Logf("%s %s per-rank latency ratio 32->256: %.2fx (bound %.1fx)", name, coll, got, ratioBound)
				if got > ratioBound {
					r.ok = false
				}
			}
		}
		return r
	}, func(r round) bool { return r.ok })
	write(t, "rankscale", res.rows)
	if !res.ok {
		for _, coll := range []string{"barrier", "allreduce"} {
			t.Errorf("per-rank %s latency grew faster than log depth allows (bound %.1fx from 32 to 256 ranks); see logged ratios", coll, ratioBound)
		}
	}

	// Sparse-connectivity gate: contacted peers bound established state.
	for _, platform := range lci.Platforms() {
		st, err := bench.RankScaleSparse(platform, 256, 8)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v", st)
		if st.MaxFabricPeers != 8 || st.MaxDevicePeers != 8 {
			t.Errorf("%s: sparse 256-rank workload established fabric-max=%d dev-max=%d peers per rank, want exactly 8",
				platform.Name, st.MaxFabricPeers, st.MaxDevicePeers)
		}
		if want := 256 * 8; st.TotalDevicePeers != want {
			t.Errorf("%s: sparse workload established %d total endpoints, want %d",
				platform.Name, st.TotalDevicePeers, want)
		}
	}
}

// TestRankScaleSmoke is the fast-job companion: a 64-rank world on each
// platform runs the sparse workload (asserting the lazy-establishment
// invariant exactly, which is scheduler-noise-free and so safe to gate
// in -short) plus one timed barrier point for the log.
func TestRankScaleSmoke(t *testing.T) {
	for _, platform := range lci.Platforms() {
		st, err := bench.RankScaleSparse(platform, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v", st)
		if st.MaxFabricPeers != 8 || st.MaxDevicePeers != 8 {
			t.Errorf("%s: sparse 64-rank workload established fabric-max=%d dev-max=%d peers per rank, want exactly 8",
				platform.Name, st.MaxFabricPeers, st.MaxDevicePeers)
		}
	}
	if testing.Short() || bench.RaceEnabled {
		return // timing point is log-only and not worth race-mode minutes
	}
	run(t, 0, bench.RankScale(lci.SimExpanse(), 64, 10)...)
}
