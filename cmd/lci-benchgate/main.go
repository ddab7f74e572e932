// Command lci-benchgate compares freshly measured BENCH_*.json artifacts
// against committed baselines and fails (exit 1) when any series point
// regresses by more than the allowed fraction. CI runs it after the full
// test pass, which writes fresh artifacts to $LCI_BENCH_DIR, against the
// BENCH_*.json baselines committed at the module root, turning them into
// a standing performance-regression gate.
//
// Usage:
//
//	lci-benchgate -baseline <dir> [-current <dir>] [-max-drop 0.30] [names...]
//
// With no names, every BENCH_*.json present in the baseline directory is
// compared. Rows are matched by the identity key their benchmark declared
// and compared on their median rate over the rounds they were measured
// in. A baseline point missing from a current artifact fails the gate
// like a regression (a renamed identity must not switch a gate off);
// points only the current artifact has are new and pass, and a missing
// current file is skipped (its producing test did not run). A current
// artifact measured at a different GOMAXPROCS or GOARCH than its
// baseline is refused (exit 2): rates taken on other cores do not
// compare. The comparison logic lives in internal/benchgate; this is the
// flag-parsing shell.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lci/internal/benchgate"
)

var (
	baselineDir = flag.String("baseline", "", "directory holding the committed baseline BENCH_*.json files (required)")
	currentDir  = flag.String("current", ".", "directory holding the freshly written BENCH_*.json files")
	maxDrop     = flag.Float64("max-drop", 0.30, "largest tolerated fractional rate drop per series point")
)

func main() {
	flag.Parse()
	if *baselineDir == "" {
		fmt.Fprintln(os.Stderr, "lci-benchgate: -baseline is required")
		flag.Usage()
		os.Exit(2)
	}
	names := flag.Args()
	if len(names) == 0 {
		matches, err := filepath.Glob(filepath.Join(*baselineDir, "BENCH_*.json"))
		if err != nil || len(matches) == 0 {
			fmt.Fprintf(os.Stderr, "lci-benchgate: no BENCH_*.json baselines in %s\n", *baselineDir)
			os.Exit(2)
		}
		for _, m := range matches {
			names = append(names, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json"))
		}
	}
	logf := func(format string, args ...any) { fmt.Printf(format, args...) }
	totalFailures := 0
	for _, name := range names {
		basePath := filepath.Join(*baselineDir, "BENCH_"+name+".json")
		curPath := filepath.Join(*currentDir, "BENCH_"+name+".json")
		if _, err := os.Stat(curPath); err != nil {
			// A missing current artifact means the producing test did not
			// run (e.g. -short or -race): skipping is the documented
			// behavior, not a failure.
			fmt.Printf("[%s] current artifact %s missing — skipped\n", name, curPath)
			continue
		}
		fmt.Printf("[%s] comparing %s against %s (max drop %.0f%%)\n", name, curPath, basePath, *maxDrop*100)
		failures, err := benchgate.CompareFiles(name, basePath, curPath, *maxDrop, logf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lci-benchgate: %v\n", err)
			os.Exit(2)
		}
		totalFailures += failures
	}
	if totalFailures > 0 {
		fmt.Fprintf(os.Stderr, "lci-benchgate: %d series point(s) regressed more than %.0f%%\n", totalFailures, *maxDrop*100)
		os.Exit(1)
	}
	fmt.Println("lci-benchgate: no regressions beyond threshold")
}
