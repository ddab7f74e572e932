package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchSpec is the part of the repository's BENCHMARK.json the
// self-tests check the output against.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return s
}

func needCores(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < nThreads {
		t.Skipf("the benchmark refuses to run on fewer than %d cores", nThreads)
	}
}

// tinyRun runs a workload briefly and returns its exit code and parsed
// result line.
func tinyRun(t *testing.T, name string, trace bool, corruptEvery int) (int, result, string) {
	t.Helper()
	cfg := runConfig{
		workload: name, seed: 7, seconds: 0.3, trace: trace,
		setups: 2, warmScale: 0.05, corruptEvery: corruptEvery,
	}
	var out, errOut bytes.Buffer
	code := runMain(cfg, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last output line is not a result: %v\nstdout:\n%s\nstderr:\n%s", name, err, out.String(), errOut.String())
	}
	return code, res, out.String() + errOut.String()
}

// TestEveryMetricPrinted runs each workload briefly, untraced and traced,
// and checks that it passes its own checks and prints every metric
// BENCHMARK.json names, with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	needCores(t)
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			code, res, out := tinyRun(t, w.Name, trace, 0)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptionCounted corrupts one payload or record in every few unit
// operations and checks that the correctness checks count it as failed
// and make the run exit non-zero.
func TestCorruptionCounted(t *testing.T) {
	needCores(t)
	for _, w := range workloads {
		code, res, out := tinyRun(t, w.name, false, 2)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted run not caught: exit %d, result correct=%v failed=%d\n%s",
				w.name, code, res.Correct, res.Failed, out)
		}
	}
}

// TestPacerGuardCountsParkedReplies checks that handler replies parked on
// the backlog count toward core.retry_txfull_frac as tx-full bounces do.
func TestPacerGuardCountsParkedReplies(t *testing.T) {
	r := report{delta: counters{posts: 95, parks: 5, replyParks: 5}}
	if got := r.txFullFrac(); got != 0.05 {
		t.Fatalf("txFullFrac with 5 parked replies in 100 attempts = %v, want 0.05", got)
	}
	r.delta.retryTx = 20
	if got := r.txFullFrac(); got != 25.0/120 {
		t.Fatalf("txFullFrac with 20 bounces and 5 parked replies in 120 attempts = %v, want %v", got, 25.0/120)
	}
}

// TestPacerGuardTrips runs am-shared on a single device per rank, where
// the modeled inject gap sets the pace, and checks that the pacer guard
// fails the run.
func TestPacerGuardTrips(t *testing.T) {
	needCores(t)
	if raceEnabled {
		t.Skip("under the race detector a round trip takes longer than the inject gap")
	}
	cfg := runConfig{workload: "am-shared", seed: 7, seconds: 0.3, setups: 2, warmScale: 0.05, devices: 1}
	var out, errOut bytes.Buffer
	code := runMain(cfg, &out, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), "pacer guard") {
		t.Fatalf("am-shared on 1 device: exit %d, want 1 with a pacer guard message\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
}
