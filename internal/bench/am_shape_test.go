package bench_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lci"
	"lci/internal/bench"
)

// amRate is one AMRate mode at 8 threads on SimExpanse.
func amRate(iters int, mode string) bench.Workload {
	return bench.AMRate(lci.SimExpanse(), 8, iters, mode)
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
	res := remeasure(2, func(attempt int) []bench.Row {
		return run(t, attempt, amRate(iters, "handler"), amRate(iters, "cqshim"))
	}, func(r []bench.Row) bool { return r[0].Median >= 1.2*r[1].Median })
	write(t, "am", res)
	if handler, shim := res[0], res[1]; handler.Median < 1.2*shim.Median {
		t.Errorf("expected handler AM path >= 1.2x the cq shim path, got %.3f vs %.3f Mrt/s (%.2fx)",
			handler.Median, shim.Median, handler.Median/shim.Median)
	}
}

// TestAMPingPongModes drives every mode of the one AM ping-pong body at
// a tiny size — it is a functional check, so it runs in -short and under
// the race detector, where the rate gates skip. Each mode must count
// exactly threads×iters round trips in every round (AMRate fails a round
// that does not), and the telemetry report (with the
// trace ring on) must show both rendezvous sides, the round trips as
// handler fires and the trace tail.
func TestAMPingPongModes(t *testing.T) {
	const threads, iters = 2, 20
	for _, mode := range []string{"handler", "cqshim", "enabled", "disabled", "plain", "hardened"} {
		rows, err := bench.Run(0, bench.AMRate(lci.SimExpanse(), threads, iters, mode))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r := rows[0]; !strings.Contains(r.Key, mode) || r.Rounds != bench.Rounds || !(r.Min > 0) {
			t.Errorf("%s: got %+v, want the mode in its key and %d rounds at a positive rate", mode, r, bench.Rounds)
		}
	}
	if _, err := bench.Run(0, bench.AMRate(lci.SimExpanse(), threads, iters, "bogus")); err == nil {
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
