package bench_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"lci"
	"lci/internal/bench"
)

// chaosSeed resolves the soak's injector seed: LCI_CHAOS_SEED can pin an
// exact seed (any uint64) to reproduce a failure, or "random" for a
// fresh one per run (the CI full job does this). The seed is always
// echoed — a chaos failure without its seed is unreproducible noise.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	seed := uint64(42)
	switch v := os.Getenv("LCI_CHAOS_SEED"); v {
	case "":
	case "random":
		seed = uint64(time.Now().UnixNano())
	default:
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("LCI_CHAOS_SEED=%q: %v (want a uint64 or \"random\")", v, err)
		}
		seed = n
	}
	t.Logf("chaos seed: %d (reproduce with LCI_CHAOS_SEED=%d)", seed, seed)
	return seed
}

// TestChaosSoak is the standing failure-domain gate: an 8-thread mixed
// AM + rendezvous + allreduce workload under a seeded drop/dup/delay
// schedule on both platforms must lose nothing (exact AM counts,
// byte-verified rendezvous payloads, bit-correct allreduces,
// packet-pool balance at quiesce — all asserted inside ChaosSoak), the
// schedule must demonstrably engage (drops observed) and the retransmit
// layer must demonstrably recover (retransmits observed, zero ops timed
// out at the cap). A three-rank peer-death scenario then checks every
// layer surfaces clean typed ErrPeerDead instead of wedging. Finally the
// fault-free-path cost gate: a ruleless injector (hardening armed, no
// faults) must keep >= 0.95x the plain small-AM rate; the measured pair
// goes to BENCH_chaos.json, which cmd/lci-benchgate gates against the
// committed baseline.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	seed := chaosSeed(t)
	const threads, iters = 8, 240

	for _, plat := range lci.Platforms() {
		res, err := bench.ChaosSoak(plat, seed, threads, iters)
		if err != nil {
			t.Fatalf("%s seed %d: %v", plat.Name, seed, err)
		}
		t.Logf("%v", res)
		if res.Drops == 0 || res.Dups == 0 || res.Delays == 0 {
			t.Errorf("%s seed %d: fault schedule did not engage: %+v", plat.Name, seed, res)
		}
		if res.Retransmits == 0 {
			t.Errorf("%s seed %d: drops observed but no retransmits — the recovery layer did not run", plat.Name, seed)
		}
		if res.Timeouts != 0 {
			t.Errorf("%s seed %d: %d rendezvous ops timed out at the retransmit cap; the soak schedule must be fully recoverable", plat.Name, seed, res.Timeouts)
		}
	}

	for _, plat := range lci.Platforms() {
		kr, err := bench.ChaosKill(plat, seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", plat.Name, seed, err)
		}
		t.Logf("%v", kr)
		// Refused send + refused AM + swept recv + two failed
		// collectives.
		if kr.PeerDeadErrors < 5 {
			t.Errorf("%s seed %d: %d typed peer-dead errors, want >= 5", plat.Name, seed, kr.PeerDeadErrors)
		}
	}

	if bench.RaceEnabled {
		t.Skip("race detector skews the fault-free-path cost ratio")
	}
	// Absolute rates on small shared CI machines swing by 20%+ between
	// runs (frequency scaling, neighbors), so the gate uses the paired
	// per-attempt ratio of medians: each attempt measures plain and
	// hardened round by round under the same machine state, alternating
	// which goes first. A real hardened-path cost depresses the ratio of
	// every attempt; noise does not.
	const rateIters = 24000
	bestRatio := 0.0
	res := remeasure(4, func(attempt int) []bench.Row {
		r := run(t, attempt, amRate(rateIters, "plain"), amRate(rateIters, "hardened"))
		bestRatio = max(bestRatio, r[1].Median/r[0].Median)
		return r
	}, func(r []bench.Row) bool { return r[1].Median >= 0.95*r[0].Median })
	write(t, "chaos", res)
	if plain, hardened := res[0], res[1]; bestRatio < 0.95 {
		t.Errorf("fault-free hardened path above cost bound: hardened %.3f vs plain %.3f Mrt/s in the last attempt (best ratio %.3fx, want >= 0.95x)",
			hardened.Median, plain.Median, bestRatio)
	}
}
