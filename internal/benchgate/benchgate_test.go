package benchgate

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lci/internal/bench"
)

// host is the measurement host every test artifact records unless a test
// changes it.
var host = bench.Meta{GoMaxProcs: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}

// art builds an artifact with one row per (key, median) pair, its min
// and max 10% either side.
func art(medians map[string]float64) *bench.Artifact {
	a := &bench.Artifact{Bench: "test", Meta: host}
	for key, m := range medians {
		a.Results = append(a.Results, bench.Row{
			Key: key, Unit: "Mmsg/s", Median: m, Min: 0.9 * m, Max: 1.1 * m, Rounds: 3,
		})
	}
	return a
}

// compare is Compare for artifacts that must be comparable.
func compare(t *testing.T, base, cur *bench.Artifact, logf func(string, ...any)) int {
	t.Helper()
	f, err := Compare("t", base, cur, 0.30, logf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCompareBaselineMatch(t *testing.T) {
	base := art(map[string]float64{"a": 1.0, "b": 2.0})
	cur := art(map[string]float64{"a": 1.05, "b": 1.9})
	if f := compare(t, base, cur, nil); f != 0 {
		t.Fatalf("matching artifacts produced %d failures", f)
	}
}

func TestCompareFlagsLargeDrop(t *testing.T) {
	base := art(map[string]float64{"a": 1.0, "b": 2.0})
	cur := art(map[string]float64{"a": 0.6, "b": 1.9}) // a dropped 40%
	if f := compare(t, base, cur, nil); f != 1 {
		t.Fatalf("40%% drop produced %d failures, want 1", f)
	}
	// A drop inside the tolerance passes (strictly-greater gate).
	cur = art(map[string]float64{"a": 0.75, "b": 2.0})
	if f := compare(t, base, cur, nil); f != 0 {
		t.Fatalf("25%% drop produced %d failures, want 0", f)
	}
	// Improvements never fail.
	cur = art(map[string]float64{"a": 5.0, "b": 9.0})
	if f := compare(t, base, cur, nil); f != 0 {
		t.Fatalf("improvement produced %d failures", f)
	}
}

func TestCompareMissingEntriesSkip(t *testing.T) {
	// A current point the baseline does not have yet is new: it passes.
	base := art(map[string]float64{"a": 1.0})
	cur := art(map[string]float64{"a": 1.0, "new": 9.0})
	logged := 0
	logf := func(string, ...any) { logged++ }
	if f := compare(t, base, cur, logf); f != 0 {
		t.Fatalf("a new current entry produced %d failures, want 0", f)
	}
	if logged != 1 { // the comparison line for "a"
		t.Fatalf("expected one compare line to be logged, got %d", logged)
	}
}

func TestCompareMissingBaselinePointFails(t *testing.T) {
	// A baseline point the current artifact lacks — here because its
	// benchmark renamed the identity it declares — fails as MISSING instead
	// of switching its gate off.
	base := art(map[string]float64{"lci SimExpanse thread-shared pairs=8": 1.0, "b": 3.0})
	cur := art(map[string]float64{"lci SimExpanse shared pairs=8": 1.0, "b": 3.0})
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	if f := compare(t, base, cur, logf); f != 1 {
		t.Fatalf("renamed identity produced %d failures, want 1", f)
	}
	if got := strings.Join(lines, ""); !strings.Contains(got, "MISSING") || !strings.Contains(got, "{lci SimExpanse thread-shared pairs=8}") {
		t.Fatalf("the missing point is not named in the log:\n%s", got)
	}
	// So does a point whose current median collapsed to zero.
	cur = art(map[string]float64{"lci SimExpanse thread-shared pairs=8": 0, "b": 3.0})
	if f := compare(t, base, cur, nil); f != 1 {
		t.Fatalf("zero current rate produced %d failures, want 1", f)
	}
}

func TestKeyIgnoresMeasurements(t *testing.T) {
	// Rows match on their declared key alone: a current row whose spread
	// and round count differ is still the same point.
	base := art(map[string]float64{"a": 1.0})
	cur := art(map[string]float64{"a": 1.0})
	cur.Results[0].Min, cur.Results[0].Max, cur.Results[0].Rounds = 0.1, 7.0, 5
	if f := compare(t, base, cur, nil); f != 0 {
		t.Fatalf("a measurement-only change produced %d failures", f)
	}
}

func TestMetricPreference(t *testing.T) {
	// The median is compared, not the min or the max: a 40% drop in the
	// median fails even when the best round held up...
	base := art(map[string]float64{"a": 1.0})
	cur := art(map[string]float64{"a": 0.6})
	cur.Results[0].Max = 2.0
	if f := compare(t, base, cur, nil); f != 1 {
		t.Fatalf("median drop hidden by a high max produced %d failures, want 1", f)
	}
	// ...and a held median passes even when the worst round collapsed.
	cur = art(map[string]float64{"a": 1.0})
	cur.Results[0].Min = 0.1
	if f := compare(t, base, cur, nil); f != 0 {
		t.Fatalf("held median with a low min produced %d failures, want 0", f)
	}
}

func TestCompareRefusesGoMaxProcsMismatch(t *testing.T) {
	base := art(map[string]float64{"a": 1.0})
	cur := art(map[string]float64{"a": 1.0})
	cur.Meta.GoMaxProcs = 1
	if _, err := Compare("t", base, cur, 0.30, nil); err == nil || !strings.Contains(err.Error(), "gomaxprocs=1") {
		t.Fatalf("gomaxprocs 1 against a baseline at 2: err = %v, want a refusal", err)
	}
}

func TestCompareRefusesGOARCHMismatch(t *testing.T) {
	base := art(map[string]float64{"a": 1.0})
	cur := art(map[string]float64{"a": 1.0})
	cur.Meta.GOARCH = "arm64"
	if _, err := Compare("t", base, cur, 0.30, nil); err == nil || !strings.Contains(err.Error(), "arm64") {
		t.Fatalf("arm64 against an amd64 baseline: err = %v, want a refusal", err)
	}
}

func TestLoadAndCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	const meta = `"meta":{"gomaxprocs":2,"goarch":"amd64"}`
	basePath := write("BENCH_x_base.json",
		`{"bench":"x",`+meta+`,"results":[{"key":"lci m","unit":"Mmsg/s","median":1.0,"min":0.9,"max":1.1,"rounds":3}]}`)
	curPath := write("BENCH_x_cur.json",
		`{"bench":"x",`+meta+`,"results":[{"key":"lci m","unit":"Mmsg/s","median":0.5,"min":0.4,"max":1.2,"rounds":3}]}`)

	f, err := CompareFiles("x", basePath, curPath, 0.30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 {
		t.Fatalf("50%% drop across files produced %d failures, want 1", f)
	}

	// Malformed JSON surfaces as an error (exit 2 in the CLI), never as a
	// silent pass.
	badPath := write("BENCH_bad.json", `{"bench":"x","results":[`)
	if _, err := CompareFiles("x", basePath, badPath, 0.30, nil); err == nil {
		t.Fatal("malformed current artifact must error")
	}
	if _, err := CompareFiles("x", badPath, curPath, 0.30, nil); err == nil {
		t.Fatal("malformed baseline artifact must error")
	}
	// A missing file errors too (the CLI pre-checks existence to produce
	// its documented skip; the package itself is strict).
	if _, err := CompareFiles("x", filepath.Join(dir, "absent.json"), curPath, 0.30, nil); err == nil {
		t.Fatal("missing baseline file must error")
	}
}
