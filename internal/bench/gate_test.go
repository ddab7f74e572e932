package bench_test

import "testing"

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

// paired measures both sides of a two-sided gate, a first on even
// attempts and b first on odd ones, so neither side always runs on the
// machine state the other left behind. The result is {a, b} either way.
func paired[T any](attempt int, a, b func() T) [2]T {
	if attempt%2 == 1 {
		rb := b()
		return [2]T{a(), rb}
	}
	ra := a()
	return [2]T{ra, b()}
}

// logged returns a function that fails t on a measurement error and
// otherwise logs and returns the result: logged(t)(bench.X(...)).
func logged[T any](t *testing.T) func(T, error) T {
	return func(r T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v", r)
		return r
	}
}
