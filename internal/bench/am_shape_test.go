package bench_test

import (
	"regexp"
	"strconv"
	"testing"

	"lci"
	"lci/internal/bench"
)

// amRate measures one AMRate mode at 8 threads on SimExpanse, failing
// the test on error.
func amRate(t *testing.T, iters int, mode string) func() bench.AMResult {
	return func() bench.AMResult {
		return logged[bench.AMResult](t)(bench.AMRate(lci.SimExpanse(), 8, iters, mode))
	}
}

// TestAMShape is the standing active-message gate: serving small AMs
// through the first-class handler path (poller-fired handlers, replies
// posted from handler context with the backlog discipline) must beat the
// completion-queue shim the old internal/rpc transport ran (shared CQ,
// pop-and-dispatch from every thread, per-call option building) by at
// least 1.2x in round-trip rate at 8 threads. The per-message work the
// handler path deletes — status boxing, payload copy, shared MPMC
// enqueue/dequeue — is the margin; measured points go to BENCH_am.json,
// which cmd/lci-benchgate gates against the committed baseline.
func TestAMShape(t *testing.T) {
	if testing.Short() {
		t.Skip("AM path comparison is not short")
	}
	if bench.RaceEnabled {
		t.Skip("race detector skews performance ratios")
	}
	const iters = 8000
	res := remeasure(2, func(attempt int) [2]bench.AMResult {
		return paired(attempt, amRate(t, iters, "handler"), amRate(t, iters, "cqshim"))
	}, func(r [2]bench.AMResult) bool { return r[0].RateMps >= 1.2*r[1].RateMps })
	handler, shim := res[0], res[1]
	meta := bench.Meta{Threads: handler.Threads, Platform: lci.SimExpanse().Name}
	if err := bench.WriteJSON("am", meta, res[:]); err != nil {
		t.Logf("bench artifact not written: %v", err)
	}
	if handler.RateMps < 1.2*shim.RateMps {
		t.Errorf("expected handler AM path >= 1.2x the cq shim path, got %.3f vs %.3f Mrt/s (%.2fx)",
			handler.RateMps, shim.RateMps, handler.RateMps/shim.RateMps)
	}
}

// TestAMPingPongModes drives every mode of the one AM ping-pong body at
// a tiny size — it is a functional check, so it runs in -short and under
// the race detector, where the rate gates skip. Each mode must count
// exactly threads×iters round trips, and the telemetry report (with the
// trace ring on) must show both rendezvous sides, the round trips as
// handler fires and the trace tail.
func TestAMPingPongModes(t *testing.T) {
	const threads, iters = 2, 20
	for _, mode := range []string{"handler", "cqshim", "enabled", "disabled", "plain", "hardened"} {
		r, err := bench.AMRate(lci.SimExpanse(), threads, iters, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.Mode != mode || r.Msgs != threads*iters || !(r.RateMps > 0) {
			t.Errorf("%s: got %+v, want mode %q with %d round trips at a positive rate", mode, r, mode, threads*iters)
		}
	}
	if _, err := bench.AMRate(lci.SimExpanse(), threads, iters, "bogus"); err == nil {
		t.Error("unknown mode accepted")
	}

	report, err := bench.TelemetryReport(lci.SimExpanse(), threads, iters, true)
	if err != nil {
		t.Fatal(err)
	}
	count := func(pattern string) int {
		m := regexp.MustCompile(pattern).FindStringSubmatch(report)
		if m == nil {
			t.Fatalf("report lacks %q:\n%s", pattern, report)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if n := count(`handler-fires=(\d+)`); n != threads*iters {
		t.Errorf("report counts %d handler fires on rank 0, want %d round trips", n, threads*iters)
	}
	for _, c := range []string{`rendezvous=(\d+)`, `rts-recv=(\d+)`, `rtr-sent=(\d+)`, `writes=(\d+)`} {
		if count(c) == 0 {
			t.Errorf("report counts no %s:\n%s", c[:len(c)-6], report)
		}
	}
	if count(`trace ring: (\d+) events`) == 0 {
		t.Errorf("trace ring empty:\n%s", report)
	}
}
