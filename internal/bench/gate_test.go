package bench_test

import (
	"testing"

	"lci/internal/bench"
)

// remeasure runs measure(attempt) for attempt = 0, 1, ... and returns the
// first result that meets the gate, or the last one after attempts
// tries. Scheduler noise on small CI machines occasionally craters one
// measurement; a real regression fails every attempt.
func remeasure[T any](attempts int, measure func(attempt int) T, gate func(T) bool) T {
	var r T
	for attempt := 0; attempt < attempts; attempt++ {
		if r = measure(attempt); gate(r) {
			break
		}
	}
	return r
}

// run measures the workloads with bench.Run, failing t on an error and
// logging every row.
func run(t *testing.T, attempt int, ws ...bench.Workload) []bench.Row {
	t.Helper()
	rows, err := bench.Run(attempt, ws...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%v", r)
	}
	return rows
}

// write records rows as the BENCH_<name>.json artifact.
func write(t *testing.T, name string, rows []bench.Row) {
	if err := bench.WriteJSON(name, rows); err != nil {
		t.Logf("bench artifact not written: %v", err)
	}
}
