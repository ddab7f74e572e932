// Package benchgate implements the bench-regression gate behind the
// cmd/lci-benchgate CLI: it loads BENCH_*.json artifacts, matches rows by
// the identity key their benchmark declared, and flags rows whose median
// rate dropped by more than an allowed fraction against the committed
// baseline. It refuses to compare artifacts measured at a different
// GOMAXPROCS or on a different GOARCH. The CLI is a thin flag-parsing
// wrapper; CI drives it after the full test pass writes fresh artifacts.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"

	"lci/internal/bench"
)

// Load reads and decodes one artifact file.
func Load(path string) (*bench.Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a bench.Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// Compare gates every baseline row of base against the cur row with the
// same key: a row whose median dropped by more than maxDrop (a fraction)
// counts as a failure, and so does a baseline row that cur lacks or
// carries without a positive median — a renamed identity or a collapsed
// measurement would otherwise switch its gate off unnoticed. Rows only
// cur has are new points and pass. Artifacts measured at a different
// GOMAXPROCS or GOARCH are not compared at all: that is an error. logf
// may be nil.
func Compare(name string, base, cur *bench.Artifact, maxDrop float64, logf func(format string, args ...any)) (failures int, err error) {
	if b, c := base.Meta, cur.Meta; b.GoMaxProcs != c.GoMaxProcs || b.GOARCH != c.GOARCH {
		return 0, fmt.Errorf("%s: measured at gomaxprocs=%d on %s, baseline at gomaxprocs=%d on %s; rates from another core count or architecture do not compare",
			name, c.GoMaxProcs, c.GOARCH, b.GoMaxProcs, b.GOARCH)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	curByKey := make(map[string]bench.Row, len(cur.Results))
	for _, r := range cur.Results {
		curByKey[r.Key] = r
	}
	for _, br := range base.Results {
		cr, ok := curByKey[br.Key]
		if !ok || !(cr.Median > 0) {
			logf("  [%s] MISSING    no current median for baseline point {%s}\n", name, br.Key)
			failures++
			continue
		}
		drop := (br.Median - cr.Median) / br.Median
		status := "ok"
		if drop > maxDrop {
			status = "REGRESSION"
			failures++
		}
		logf("  [%s] %-10s %s: median %.4g -> %.4g %s (%+.1f%%; current min %.4g, max %.4g)\n",
			name, status, br.Key, br.Median, cr.Median, br.Unit, -drop*100, cr.Min, cr.Max)
	}
	return failures, nil
}

// CompareFiles is Compare over two artifact paths.
func CompareFiles(name, basePath, curPath string, maxDrop float64, logf func(format string, args ...any)) (failures int, err error) {
	base, err := Load(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := Load(curPath)
	if err != nil {
		return 0, err
	}
	return Compare(name, base, cur, maxDrop, logf)
}
