package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Meta describes the configuration an artifact was measured under, so
// that BENCH_*.json files are self-describing and comparable across runs
// and machines. Callers fill the benchmark-shaped fields (threads,
// devices, platform); WriteJSON stamps the host/toolchain fields.
type Meta struct {
	// GoMaxProcs is runtime.GOMAXPROCS at measurement time (filled
	// automatically when zero).
	GoMaxProcs int `json:"gomaxprocs"`
	// Threads is the benchmark's thread (goroutine-pair) count per rank.
	Threads int `json:"threads,omitempty"`
	// Devices is the LCI device-pool size when the whole artifact was
	// measured at one fixed pool size; it is omitted when the artifact
	// sweeps device counts, which are then recorded per result row
	// (BENCH_devscale.json does this).
	Devices int `json:"devices,omitempty"`
	// Platform names the simulated platform (SimExpanse / SimDelta).
	Platform string `json:"platform,omitempty"`
	// Ranks is the simulated world size when the whole artifact was
	// measured at one rank count, or the largest swept rank count when the
	// artifact sweeps world sizes (BENCH_rankscale.json does the latter;
	// per-row counts live in each result's Ranks field).
	Ranks int `json:"ranks,omitempty"`
	// Domains is the NUMA domain count of the synthetic topology when the
	// whole artifact was measured at one (BENCH_numa.json).
	Domains int `json:"domains,omitempty"`
	// GoVersion, GOOS and GOARCH identify the toolchain and host (filled
	// automatically).
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// Artifact is the envelope written around benchmark results so that runs
// are comparable over time: the repository tracks one BENCH_<name>.json
// baseline per benchmark at its root, and cmd/lci-benchgate compares
// fresh artifacts against them.
type Artifact struct {
	Bench     string `json:"bench"`
	Timestamp string `json:"timestamp"`
	Meta      Meta   `json:"meta"`
	Results   any    `json:"results"`
}

// WriteJSON writes results as an indented JSON artifact named
// BENCH_<name>.json into $LCI_BENCH_DIR, and does nothing when that is
// unset — a plain `go test ./...` never rewrites the committed baselines
// (regenerate them with LCI_BENCH_DIR=$PWD from the module root; go test
// runs each package in its own directory, so a relative path lands
// there). Errors are returned, not fatal: a read-only directory must not
// fail the benchmark that produced the data.
func WriteJSON(name string, meta Meta, results any) error {
	dir := os.Getenv("LCI_BENCH_DIR")
	if dir == "" {
		return nil
	}
	if meta.GoMaxProcs == 0 {
		meta.GoMaxProcs = runtime.GOMAXPROCS(0)
	}
	meta.GoVersion = runtime.Version()
	meta.GOOS = runtime.GOOS
	meta.GOARCH = runtime.GOARCH
	art := Artifact{
		Bench:     name,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Meta:      meta,
		Results:   results,
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), data, 0o644)
}
