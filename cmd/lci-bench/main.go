// lci-bench regenerates the microbenchmark figures of the paper's
// evaluation (§6.2): Figure 3 (process-based message rate), Figure 4
// (thread-based message rate, dedicated/shared resources), Figure 5
// (thread-based bandwidth) and Figure 6 (individual resource
// throughput), printing one row per series point: its median, min and
// max rate over three timed rounds. It also prints the
// Table 1 paradigm matrix and the simulated Table 2 platform
// configuration.
//
// Usage:
//
//	lci-bench -fig 4                # one figure
//	lci-bench -fig 6 -iters 50000 -maxpairs 8   # resource throughput, 1..8 threads
//	lci-bench -fig all -iters 5000  # everything, slower
//	lci-bench -mode coll            # graph-driven collective latency + placement
//	lci-bench -mode am              # handler vs cq-shim AM throughput
//	lci-bench -mode agg             # coalesced vs naive record throughput + homing
//	lci-bench -mode rankscale       # latency sweep to 256 ranks + sparse connectivity
//	lci-bench -mode chaos           # seeded fault-injection soak + peer-death scenario
//	lci-bench -mode chaos -seed 7   # same, pinned injector seed (runs reproduce per seed)
//	lci-bench -stats                # run a mixed workload, dump the telemetry snapshot
//	lci-bench -stats -trace         # same, with the message-lifecycle trace ring on
//	lci-bench -table1 -platforms
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"lci"
	"lci/internal/bench"
	"lci/internal/lcw"
	"lci/internal/topo"
)

var (
	figFlag   = flag.String("fig", "", "figure to regenerate: 3, 4, 5, 6, or all")
	modeFlag  = flag.String("mode", "", "extra suite to run: coll (graph-driven collective latency + placement), am (handler vs cq-shim AM throughput), agg (coalesced vs naive record throughput + NUMA homing), rankscale (p2p/collective latency at 8..256 ranks + sparse-connectivity stats), or chaos (seeded fault-injection soak, peer-death scenario, fault-free-path cost)")
	seedFlag  = flag.Uint64("seed", 42, "with -mode chaos: the fault injector seed (a chaos run is reproducible from it)")
	itersFlag = flag.Int("iters", 2000, "ping-pong iterations per pair (-fig 6: operation pairs per thread)")
	maxPairs  = flag.Int("maxpairs", 16, "largest pair/thread count in sweeps")
	table1    = flag.Bool("table1", false, "print the Table 1 post_comm paradigm matrix")
	platforms = flag.Bool("platforms", false, "print the simulated platform configuration (Table 2)")
	statsFlag = flag.Bool("stats", false, "run a short mixed workload and print the per-layer telemetry snapshot")
	traceFlag = flag.Bool("trace", false, "with -stats: record the message-lifecycle trace ring and append its tail")
)

func pairSweep() []int {
	var out []int
	for p := 1; p <= *maxPairs; p *= 2 {
		out = append(out, p)
	}
	return out
}

// show measures the workloads and prints one row each.
func show(ws ...bench.Workload) {
	rows, err := bench.Run(0, ws...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	for _, r := range rows {
		fmt.Println(r)
	}
}

func fig3() {
	fmt.Println("== Figure 3: process-based message rate (8 B, unidirectional) ==")
	for _, plat := range lci.Platforms() {
		for _, kind := range []lcw.Kind{lcw.LCI, lcw.MPI, lcw.GASNET} {
			for _, pairs := range pairSweep() {
				cfg := lcw.Config{Kind: kind, Ranks: 2 * pairs, ThreadsPerRank: 1}
				show(bench.MessageRate(cfg, plat, *itersFlag, "process"))
			}
		}
	}
}

// series is one library/resource pairing of Figures 4 and 5.
type series struct {
	kind      lcw.Kind
	dedicated bool
}

// mode names a series' resource mode.
func (s series) mode() string {
	if s.dedicated {
		return "thread-dedicated"
	}
	return "thread-shared"
}

// fig5Series are Figure 5's pairings; Figure 4 adds GASNet.
var fig5Series = []series{{lcw.LCI, true}, {lcw.LCI, false}, {lcw.MPIX, true}, {lcw.MPI, false}}

func fig4() {
	fmt.Println("== Figure 4: thread-based message rate (8 B, unidirectional) ==")
	for _, plat := range lci.Platforms() {
		for _, s := range slices.Concat(fig5Series, []series{{lcw.GASNET, false}}) {
			for _, threads := range pairSweep() {
				cfg := lcw.Config{Kind: s.kind, Ranks: 2, ThreadsPerRank: threads, Dedicated: s.dedicated}
				show(bench.MessageRate(cfg, plat, *itersFlag, s.mode()))
			}
		}
	}
}

func fig5() {
	fmt.Println("== Figure 5: thread-based bandwidth (send-receive, unidirectional) ==")
	for _, plat := range lci.Platforms() {
		for _, s := range fig5Series {
			for size := 16; size <= 1<<20; size *= 16 {
				iters := *itersFlag / 10
				if size >= 1<<18 {
					iters /= 4
				}
				show(bench.BandwidthThread(s.kind, plat, *maxPairs, max(iters, 8), size, s.dedicated))
			}
		}
	}
}

func fig6() {
	fmt.Println("== Figure 6: individual resource throughput ==")
	for _, res := range []string{"packet", "matching", "cq", "cq-fixed"} {
		for _, threads := range pairSweep() {
			show(bench.ResourceThroughput(res, threads, *itersFlag))
		}
	}
}

func coll() {
	fmt.Println("== Collectives: graph-driven barrier / allreduce rate (the inverse of latency) ==")
	for _, plat := range lci.Platforms() {
		for ranks := 2; ranks <= *maxPairs; ranks *= 2 {
			show(bench.CollectiveLatency(plat, ranks, *itersFlag)...)
		}
	}
	fmt.Println("== Collectives: placement-aware vs worst-placement barrier ==")
	tp := topo.Uniform(2, 4)
	for _, plat := range lci.Platforms() {
		for _, worst := range []bool{false, true} {
			show(bench.CollectiveLocality(plat, tp, 8, 2, *itersFlag, worst))
		}
	}
}

func am() {
	fmt.Println("== Active messages: handler path vs completion-queue shim (8 B round trips) ==")
	for _, plat := range lci.Platforms() {
		for threads := 1; threads <= *maxPairs; threads *= 2 {
			show(bench.AMRate(plat, threads, *itersFlag, "handler"), bench.AMRate(plat, threads, *itersFlag, "cqshim"))
		}
	}
}

func agg() {
	fmt.Println("== Aggregation: coalesced vs naive 16 B records, local vs cross-NUMA homing ==")
	for _, plat := range lci.Platforms() {
		for threads := 1; threads <= *maxPairs; threads *= 2 {
			var ws []bench.Workload
			for _, mode := range []string{"agg", "naive", "local", "cross"} {
				ws = append(ws, bench.AggRate(plat, threads, *itersFlag, mode))
			}
			show(ws...)
		}
	}
}

func rankscale() {
	fmt.Println("== Rank scaling: p2p / barrier / 8 B allreduce rate, 8..256 ranks ==")
	for _, plat := range lci.Platforms() {
		for _, ranks := range []int{8, 32, 128, 256} {
			iters := 20
			if ranks >= 128 {
				iters = 10
			}
			show(bench.RankScale(plat, ranks, iters)...)
		}
	}
	fmt.Println("== Rank scaling: sparse connectivity (256 ranks, 8 peers each) ==")
	for _, plat := range lci.Platforms() {
		st, err := bench.RankScaleSparse(plat, 256, 8)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			continue
		}
		fmt.Println(st)
	}
}

func chaos() {
	fmt.Println("== Chaos: mixed AM + rendezvous + allreduce soak under a seeded drop/dup/delay schedule ==")
	const threads = 8
	iters := *itersFlag / 8
	if iters < 64 {
		iters = 64
	}
	for _, plat := range lci.Platforms() {
		res, err := bench.ChaosSoak(plat, *seedFlag, threads, iters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error (reproduce with -seed %d): %v\n", *seedFlag, err)
			continue
		}
		fmt.Println(res)
	}
	fmt.Println("== Chaos: peer-death scenario (refused posts, swept receives, failing collectives) ==")
	for _, plat := range lci.Platforms() {
		res, err := bench.ChaosKill(plat, *seedFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error (reproduce with -seed %d): %v\n", *seedFlag, err)
			continue
		}
		fmt.Println(res)
	}
	fmt.Println("== Chaos: fault-free-path cost (hardening armed, no faults scheduled) ==")
	show(bench.AMRate(lci.SimExpanse(), threads, *itersFlag, "plain"), bench.AMRate(lci.SimExpanse(), threads, *itersFlag, "hardened"))
}

func stats() {
	fmt.Println("== Telemetry: per-layer snapshot after a mixed AM + rendezvous workload ==")
	threads := 8
	if threads > *maxPairs {
		threads = *maxPairs
	}
	report, err := bench.TelemetryReport(lci.SimExpanse(), threads, *itersFlag, *traceFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Print(report)
}

func printTable1() {
	fmt.Println("== Table 1: post_comm paradigm matrix ==")
	fmt.Println("Direction  RemoteBuf  RemoteComp  Validity  Paradigm")
	rows := []struct {
		dir, rb, rc, valid, what string
	}{
		{"OUT", "none", "none", "yes", "send"},
		{"OUT", "none", "specified", "yes", "active message"},
		{"OUT", "specified", "none", "yes", "RMA put"},
		{"OUT", "specified", "specified", "yes", "RMA put with signal"},
		{"IN", "none", "none", "yes", "receive"},
		{"IN", "none", "specified", "no", "-"},
		{"IN", "specified", "none", "yes", "RMA get"},
		{"IN", "specified", "specified", "yes*", "RMA get with signal (*unimplemented, §5.3)"},
	}
	for _, r := range rows {
		fmt.Printf("%-10s %-10s %-11s %-9s %s\n", r.dir, r.rb, r.rc, r.valid, r.what)
	}
}

func printPlatforms() {
	fmt.Println("== Table 2 (simulated): platform configuration ==")
	for _, p := range lci.Platforms() {
		fmt.Printf("%-12s NIC=%-18s Network=%-28s provider=%s layout=%s\n", p.Name, p.NIC, p.Network,
			p.Provider.Layout.Provider(), p.Provider.Layout)
	}
}

func main() {
	flag.Parse()
	if *table1 {
		printTable1()
	}
	if *platforms {
		printPlatforms()
	}
	if *statsFlag {
		stats()
	}
	switch *modeFlag {
	case "coll":
		coll()
	case "am":
		am()
	case "agg":
		agg()
	case "rankscale":
		rankscale()
	case "chaos":
		chaos()
	case "":
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	switch *figFlag {
	case "3":
		fig3()
	case "4":
		fig4()
	case "5":
		fig5()
	case "6":
		fig6()
	case "all":
		fig3()
		fig4()
		fig5()
		fig6()
	case "":
		if !*table1 && !*platforms && !*statsFlag && *modeFlag == "" {
			flag.Usage()
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figFlag)
		os.Exit(2)
	}
}
