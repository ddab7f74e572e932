package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Rounds is the number of timed rounds behind every Row.
const Rounds = 3

// Row is one point of a rate series, the one result shape of every
// measurement in this package and of every BENCH_*.json artifact: the
// identity its benchmark declared, the rate's unit, and the rate's spread
// over the rounds it was measured in. Median is the rate gates compare.
type Row struct {
	Key    string  `json:"key"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Rounds int     `json:"rounds"`
}

func (r Row) String() string {
	return fmt.Sprintf("%-46s %10.4g %-6s (min %.4g, max %.4g, %d rounds)",
		r.Key, r.Median, r.Unit, r.Min, r.Max, r.Rounds)
}

// Workload is one series point ready to measure: its identity, its unit,
// and a body that sets up, times and tears down one round, returning the
// operations it counted and the wall time they took.
type Workload struct {
	key, unit string
	perUnit   float64 // operations per unit of rate: 1e6 for M…/s, 1e9 for GB/s
	round     func() (n int64, elapsed time.Duration, err error)
}

// workload declares a series point whose rate is counted in millions
// per second.
func workload(unit string, round func() (int64, time.Duration, error), format string, args ...any) Workload {
	return Workload{key: fmt.Sprintf(format, args...), unit: unit, perUnit: 1e6, round: round}
}

// Run measures every workload over Rounds rounds and returns one Row
// each, in order. The workloads are interleaved round by round so that
// none always runs on the machine state another left behind: in the
// order given on even attempts, in reverse on odd ones.
func Run(attempt int, ws ...Workload) ([]Row, error) {
	rates := make([][]float64, len(ws))
	for r := 0; r < Rounds; r++ {
		for k := range ws {
			i := k
			if attempt%2 == 1 {
				i = len(ws) - 1 - k
			}
			n, elapsed, err := ws[i].round()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ws[i].key, err)
			}
			rates[i] = append(rates[i], float64(n)/elapsed.Seconds()/ws[i].perUnit)
		}
	}
	rows := make([]Row, len(ws))
	for i, w := range ws {
		sort.Float64s(rates[i])
		rows[i] = Row{Key: w.key, Unit: w.unit, Median: rates[i][Rounds/2],
			Min: rates[i][0], Max: rates[i][Rounds-1], Rounds: Rounds}
	}
	return rows, nil
}

// Meta records the host and toolchain an artifact was measured on.
// cmd/lci-benchgate refuses to compare artifacts whose GoMaxProcs or
// GOARCH differ: a rate taken on other cores is not a regression.
type Meta struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// Artifact is the envelope written around a benchmark's rows so that runs
// are comparable over time: the repository tracks one BENCH_<name>.json
// baseline per benchmark at its root, and cmd/lci-benchgate compares
// fresh artifacts against them.
type Artifact struct {
	Bench     string `json:"bench"`
	Timestamp string `json:"timestamp"`
	Meta      Meta   `json:"meta"`
	Results   []Row  `json:"results"`
}

// WriteJSON writes rows as an indented JSON artifact named
// BENCH_<name>.json into $LCI_BENCH_DIR, and does nothing when that is
// unset — a plain `go test ./...` never rewrites the committed baselines,
// which are per-point medians of several such runs (README). Give it an
// absolute path: go test runs each package in its own directory. Errors
// are returned, not fatal: a read-only directory must not fail the
// benchmark that produced the data.
func WriteJSON(name string, rows []Row) error {
	dir := os.Getenv("LCI_BENCH_DIR")
	if dir == "" {
		return nil
	}
	art := Artifact{
		Bench:     name,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Meta: Meta{
			GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		Results: rows,
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), data, 0o644)
}
