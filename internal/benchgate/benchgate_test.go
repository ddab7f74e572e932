package benchgate

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// art builds an artifact with one result row per (mode, rate) pair.
func art(rates map[string]float64) *Artifact {
	a := &Artifact{Bench: "test"}
	for mode, rate := range rates {
		a.Results = append(a.Results, map[string]any{
			"Library": "lci", "Mode": mode, "Pairs": float64(8), "RateMps": rate,
		})
	}
	return a
}

func TestCompareBaselineMatch(t *testing.T) {
	base := art(map[string]float64{"a": 1.0, "b": 2.0})
	cur := art(map[string]float64{"a": 1.05, "b": 1.9})
	if f := Compare("t", base, cur, 0.30, nil); f != 0 {
		t.Fatalf("matching artifacts produced %d failures", f)
	}
}

func TestCompareFlagsLargeDrop(t *testing.T) {
	base := art(map[string]float64{"a": 1.0, "b": 2.0})
	cur := art(map[string]float64{"a": 0.6, "b": 1.9}) // a dropped 40%
	if f := Compare("t", base, cur, 0.30, nil); f != 1 {
		t.Fatalf("40%% drop produced %d failures, want 1", f)
	}
	// A drop inside the tolerance passes (strictly-greater gate).
	cur = art(map[string]float64{"a": 0.75, "b": 2.0})
	if f := Compare("t", base, cur, 0.30, nil); f != 0 {
		t.Fatalf("25%% drop produced %d failures, want 0", f)
	}
	// Improvements never fail.
	cur = art(map[string]float64{"a": 5.0, "b": 9.0})
	if f := Compare("t", base, cur, 0.30, nil); f != 0 {
		t.Fatalf("improvement produced %d failures", f)
	}
}

func TestCompareMissingEntriesSkip(t *testing.T) {
	// A current point the baseline does not have yet is new: it passes.
	base := art(map[string]float64{"a": 1.0})
	cur := art(map[string]float64{"a": 1.0, "new": 9.0})
	logged := 0
	logf := func(string, ...any) { logged++ }
	if f := Compare("t", base, cur, 0.30, logf); f != 0 {
		t.Fatalf("a new current entry produced %d failures, want 0", f)
	}
	if logged != 1 { // the comparison line for "a"
		t.Fatalf("expected one compare line to be logged, got %d", logged)
	}
	// A baseline entry without any rate metric has nothing to gate.
	base.Results = append(base.Results, map[string]any{"Mode": "no-metric"})
	if f := Compare("t", base, cur, 0.30, nil); f != 0 {
		t.Fatalf("metric-less baseline entry produced %d failures", f)
	}
}

func TestCompareMissingBaselinePointFails(t *testing.T) {
	// A baseline point the current artifact lacks — here because its
	// identity field was renamed — fails instead of switching its gate
	// off.
	base := art(map[string]float64{"a": 1.0, "b": 3.0})
	cur := &Artifact{Bench: "test", Results: []map[string]any{
		{"Library": "lci", "Mode": "a", "Pairs": float64(8), "RateMps": 1.0},
		{"Library": "lci", "Path": "b", "Pairs": float64(8), "RateMps": 3.0},
	}}
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	if f := Compare("t", base, cur, 0.30, logf); f != 1 {
		t.Fatalf("renamed identity field produced %d failures, want 1", f)
	}
	if got := strings.Join(lines, ""); !strings.Contains(got, "MISSING") || !strings.Contains(got, "Mode=b") {
		t.Fatalf("the missing point is not named in the log:\n%s", got)
	}
	// So does a point whose current rate collapsed to zero (no metric).
	cur = art(map[string]float64{"a": 1.0, "b": 0})
	if f := Compare("t", base, cur, 0.30, nil); f != 1 {
		t.Fatalf("zero current rate produced %d failures, want 1", f)
	}
}

func TestKeyIgnoresMeasurements(t *testing.T) {
	a := map[string]any{"Library": "lci", "Pairs": float64(8), "RateMps": 1.0, "Msgs": float64(100), "Seconds": 0.5}
	b := map[string]any{"Library": "lci", "Pairs": float64(8), "RateMps": 9.9, "Msgs": float64(7), "Seconds": 9.0}
	if Key(a) != Key(b) {
		t.Fatalf("keys differ on measurement-only changes: %q vs %q", Key(a), Key(b))
	}
	c := map[string]any{"Library": "lci", "Pairs": float64(4), "RateMps": 1.0}
	if Key(a) == Key(c) {
		t.Fatal("keys must differ on configuration fields")
	}
}

func TestMetricPreference(t *testing.T) {
	if f, v, ok := Metric(map[string]any{"GBps": 2.5}); !ok || f != "GBps" || v != 2.5 {
		t.Fatalf("Metric(GBps) = %q %v %v", f, v, ok)
	}
	if _, _, ok := Metric(map[string]any{"Seconds": 1.0}); ok {
		t.Fatal("Seconds must not be a rate metric")
	}
	if f, _, ok := Metric(map[string]any{"RateMps": 1.0, "Mops": 2.0}); !ok || f != "RateMps" {
		t.Fatalf("preference order violated: got %q", f)
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
	basePath := write("BENCH_x_base.json",
		`{"bench":"x","results":[{"Library":"lci","Mode":"m","RateMps":1.0}]}`)
	curPath := write("BENCH_x_cur.json",
		`{"bench":"x","results":[{"Library":"lci","Mode":"m","RateMps":0.5}]}`)

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
