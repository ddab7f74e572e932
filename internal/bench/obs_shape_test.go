package bench_test

import (
	"testing"

	"lci/internal/bench"
)

// TestTelemetryOverhead is the standing observability gate: the telemetry
// layer's default state (per-layer counters + latency histograms) must
// cost no more than 10% of the Fig-4-shaped small-AM round-trip rate at 8
// threads versus a fully disabled runtime. The disabled path is one
// relaxed flag load per site, the enabled path a handful of uncontended
// padded atomics per message — if either stops being true this test is
// where it shows up. The enabled run fails on an empty telemetry
// snapshot (AMRate checks it), so the gate cannot pass by measuring
// counters that no longer run. Measured points go to BENCH_obs.json,
// which cmd/lci-benchgate gates against the committed baseline.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("telemetry overhead measurement is not short")
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios")
	}
	const iters = 8000
	res := remeasure(3, func(attempt int) []bench.Row {
		return run(t, attempt, amRate(iters, "disabled"), amRate(iters, "enabled"))
	}, func(r []bench.Row) bool { return r[1].Median >= 0.9*r[0].Median })
	write(t, "obs", res)
	if disabled, enabled := res[0], res[1]; enabled.Median < 0.9*disabled.Median {
		t.Errorf("telemetry overhead above bound: enabled %.3f vs disabled %.3f Mrt/s (%.2fx, want >= 0.90x)",
			enabled.Median, disabled.Median, enabled.Median/disabled.Median)
	}
}
