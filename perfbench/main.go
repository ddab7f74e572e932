// Command perfbench is the repository benchmark: three closed-loop
// workloads driven through the root lci package's exported API, each run
// by two worker goroutines that act as worker threads of both ranks of a
// 2-rank World. Every delivery is checked; the last line of standard
// output is one JSON object with the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). See README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//	go run . --workload am-shared --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark scenario. setup builds a world, registers
// everything and runs the fixed warm-up; the returned instance runs the
// timed phase on the two worker goroutines.
type workload struct {
	name  string
	why   string
	setup func(cfg runConfig) (instance, error)
}

// instance is one set-up world ready for its timed phase.
type instance interface {
	// run drives the timed phase until the deadline, with one tracer and
	// one result per worker goroutine, and returns the phase's wall time
	// and the failures no single goroutine saw (a handler's, a sink's).
	run(deadline time.Time, tr [nThreads]*tracer, res [nThreads]*threadResult) (time.Duration, int64)
	// snapshot reads the telemetry and fabric counters of both ranks.
	snapshot() counters
	// dump renders the last telemetry snapshot of both ranks for the
	// watchdog.
	dump(w io.Writer)
	close() error
}

// nThreads is the number of worker goroutines, each a worker thread of
// both ranks. The host-capacity guard refuses to start when the host has
// fewer cores than this, so spinning goroutines never outnumber cores.
const nThreads = 2

var workloads = []workload{
	{"am-shared", "8 B AM ping-pong into a replying handler, two threads sharing an 8-device pool (SimExpanse)", setupAM},
	{"sendrecv-mix", "tagged send/recv of 8 B/4 KiB/256 KiB through matching, a shared CQ and rendezvous (SimDelta)", setupSendRecv},
	{"agg-bsp", "16 B records coalesced by the aggregator, with an IAllreduce of counts per superstep (SimExpanse)", setupAgg},
}

// runConfig is what a run is parameterised by.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setups is how many times an untraced run sets up and measures a
	// world (setupRounds outside the self-tests); setup_s is the median.
	setups int
	// warmScale scales the fixed warm-up work (1 in real runs; tests use
	// less).
	warmScale float64
	// corruptEvery, when > 0, corrupts one payload in every corruptEvery
	// unit operations, so the self-tests can check that the correctness
	// checks catch it.
	corruptEvery int
	// devices, when > 0, replaces am-shared's device pool size, so the
	// self-tests can make the inject gap bite and trip the pacer guard.
	devices int
	// traceOut is a directory to write the recorded spans to ("" = none).
	traceOut string
}

func main() {
	var cfg runConfig
	var seed int64
	flag.StringVar(&cfg.workload, "workload", "", "workload: am-shared, sendrecv-mix or agg-bsp")
	flag.Int64Var(&seed, "seed", 1, "seed for payload bytes, post order and record destinations")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds, at most 60")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.trace = *trace == 1
	cfg.warmScale = 1
	cfg.setups = setupRounds
	os.Exit(runMain(cfg, os.Stdout, os.Stderr))
}

// runMain runs one invocation and returns the process exit code: 0 when
// the run completed and every check passed, 1 on a correctness failure,
// 2 on a refused or invalid invocation, 3 when the watchdog fired.
func runMain(cfg runConfig, stdout, stderr io.Writer) int {
	wl := findWorkload(cfg.workload)
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || cfg.seconds > maxSeconds || cfg.setups < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be in (0, %d]\n", maxSeconds)
		return 2
	}
	if err := checkHost(); err != nil {
		fmt.Fprintf(stderr, "perfbench: refusing to run: %v\n", err)
		return 2
	}
	res, err := runWorkload(*wl, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one invocation. Untraced, it runs cfg.setups rounds,
// each setting up a fresh world and measuring it for an equal share of
// the time, and reports the median of each metric over the rounds, so one
// slow world or one burst of host noise does not set the result. Traced,
// it sets up one world and measures it untraced for a third of the time
// and traced for the rest.
func runWorkload(wl workload, cfg runConfig, stdout, stderr io.Writer) (result, error) {
	wd := startWatchdog(cfg, stdout, stderr)
	defer wd.stop()
	host := probeHost()

	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	setupTimes := make([]float64, 0, setups)
	var rounds []report
	for range setups {
		runtime.GC()
		t0 := time.Now()
		inst, err := wl.setup(cfg)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		wd.watch(inst)
		if cfg.trace {
			// The untraced part gives the tracing overhead against a
			// phase of the same world a moment earlier.
			plain := measure(inst, cfg.seconds/3, nil)
			tr := newTracers(cfg.seconds * 2 / 3)
			rep := measure(inst, cfg.seconds*2/3, tr)
			rep.overhead = rep.phase.p50()/plain.phase.p50() - 1
			rep.spans = analyse(tr)
			if cfg.traceOut != "" {
				if err := writeSpans(cfg, tr); err != nil {
					fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				}
			}
			rounds = append(rounds, plain, rep)
		} else {
			rounds = append(rounds, measure(inst, cfg.seconds/float64(setups), nil))
		}
		if err := inst.close(); err != nil {
			return result{}, fmt.Errorf("closing world: %w", err)
		}
		// Drop the watchdog's reference, so the closed world is garbage by
		// the next set-up and does not inflate its heap.
		wd.watch(nil)
	}

	res := result{Metrics: map[string]metric{}}
	var wall, cpu time.Duration
	for _, r := range rounds {
		wall += r.wall
		cpu += r.cpu
		res.Attempted += r.phase.attempted
		res.Failed += r.phase.failed + r.delta.dropped
		for _, f := range r.phase.failures {
			fmt.Fprintf(stderr, "perfbench: %s\n", f)
		}
		if r.phase.failed > int64(len(r.phase.failures)) {
			fmt.Fprintf(stderr, "perfbench: %d operations failed in a phase\n", r.phase.failed)
		}
		if r.delta.dropped > 0 {
			fmt.Fprintf(stderr, "perfbench: completion queues dropped %d completions\n", r.delta.dropped)
		}
		// Pacer guard: a baseline must not measure the modeled inject gap.
		if f := r.txFullFrac(); f >= maxTxFullFrac {
			fmt.Fprintf(stderr, "perfbench: pacer guard: core.retry_txfull_frac %.4f >= %.2f (%d tx-full bounces, %d handler replies parked)\n",
				f, maxTxFullFrac, r.delta.retryTx, r.delta.replyParks)
			res.Failed++
		}
	}
	host.finish(wall, cpu)
	res.Correct = res.Failed == 0
	if cfg.trace {
		rounds[len(rounds)-1].layerMetrics(res.Metrics)
	} else {
		endToEnd(rounds, median(setupTimes), res.Metrics)
	}
	printHuman(stdout, wl, cfg, rounds, host, setupTimes, res)
	return res, nil
}

// maxSeconds is the longest timed phase a run accepts: with set-up and
// the host probes it still ends within the watchdog's limit and three
// minutes.
const maxSeconds = 60

// setupRounds is how many times a run sets a world up. Untraced, each
// round measures its own world for an equal share of the time.
const setupRounds = 10

// maxTxFullFrac is the pacer guard's limit on the share of posts bounced
// by a full transmit queue (see report.txFullFrac).
const maxTxFullFrac = 0.01

// measure runs one timed phase of seconds on inst and returns its report
// together with the counter deltas over it.
func measure(inst instance, seconds float64, tr []*tracer) report {
	trs := offTracers()
	if tr != nil {
		copy(trs[:], tr)
	}
	var res [nThreads]*threadResult
	for g := range res {
		res[g] = &threadResult{lat: newReservoir(uint64(g) + 1)}
	}
	before := inst.snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	elapsed, failed := inst.run(t0.Add(time.Duration(seconds*float64(time.Second))), trs, res)
	wall := time.Since(t0)
	ph := merge(res[:], elapsed)
	ph.failed += failed
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	delta := inst.snapshot().sub(before)
	return report{
		phase:      ph,
		delta:      delta,
		wall:       wall,
		cpu:        cpu,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		tracers:    trs,
	}
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// offTracers returns tracers that record nothing.
func offTracers() [nThreads]*tracer {
	var trs [nThreads]*tracer
	for i := range trs {
		trs[i] = &tracer{}
	}
	return trs
}
