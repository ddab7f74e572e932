// Package benchgate implements the bench-regression gate behind the
// cmd/lci-benchgate CLI: it loads BENCH_*.json artifacts, matches result
// entries by their identity fields, and flags series points whose rate
// metric dropped by more than an allowed fraction against the committed
// baseline. The CLI is a thin flag-parsing wrapper; CI drives it after
// the full test pass rewrites the artifacts in the working tree.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// MetricFields are the recognized rate metrics, in preference order.
var MetricFields = []string{"RateMps", "GBps", "Mops"}

// Artifact mirrors bench.Artifact loosely: only the fields the gate
// needs, tolerant of older envelope layouts (it ignores everything but
// results).
type Artifact struct {
	Bench   string           `json:"bench"`
	Results []map[string]any `json:"results"`
}

// Load reads and decodes one artifact file.
func Load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// Key builds a stable identity for one result entry from everything that
// is not a measurement: string fields plus integer-valued configuration
// fields (Pairs, Threads, Devices, Domains, Size), excluding counters and
// timings.
func Key(r map[string]any) string {
	skip := map[string]bool{
		"Msgs": true, "Bytes": true, "Seconds": true, "Ops": true,
		"RateMps": true, "GBps": true, "Mops": true,
	}
	parts := make([]string, 0, len(r))
	for k, v := range r {
		if skip[k] {
			continue
		}
		switch v := v.(type) {
		case string:
			parts = append(parts, fmt.Sprintf("%s=%s", k, v))
		case float64:
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Metric extracts the entry's rate metric: the first MetricFields member
// present with a positive value.
func Metric(r map[string]any) (string, float64, bool) {
	for _, f := range MetricFields {
		if v, ok := r[f].(float64); ok && v > 0 {
			return f, v, true
		}
	}
	return "", 0, false
}

// Compare gates every baseline series point of base against cur: a point
// whose rate metric dropped by more than maxDrop (a fraction) counts as a
// failure, and so does a baseline point that cur lacks or carries without
// a positive rate — a renamed identity field or a collapsed measurement
// would otherwise switch its gate off unnoticed. Entries only cur has are
// new points and pass. logf may be nil.
func Compare(name string, base, cur *Artifact, maxDrop float64, logf func(format string, args ...any)) (failures int) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	curByKey := make(map[string]map[string]any, len(cur.Results))
	for _, r := range cur.Results {
		curByKey[Key(r)] = r
	}
	for _, br := range base.Results {
		k := Key(br)
		field, baseVal, ok := Metric(br)
		if !ok {
			continue // baseline entry carries no rate metric: nothing to gate
		}
		_, curVal, ok := Metric(curByKey[k])
		if !ok {
			logf("  [%s] MISSING    no current %s for baseline point {%s}\n", name, field, k)
			failures++
			continue
		}
		drop := (baseVal - curVal) / baseVal
		status := "ok"
		if drop > maxDrop {
			status = "REGRESSION"
			failures++
		}
		logf("  [%s] %-10s %s: %s %.3f -> %.3f (%+.1f%%)\n",
			name, status, k, field, baseVal, curVal, -drop*100)
	}
	return failures
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
	return Compare(name, base, cur, maxDrop, logf), nil
}
