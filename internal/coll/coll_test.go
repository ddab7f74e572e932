package coll_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"lci"
	"lci/internal/bench"
	"lci/internal/core"
)

// leanWorld keeps per-test resource quotas small (the library defaults
// target microbenchmark packet volumes).
func leanWorld(ranks int, opts ...lci.WorldOption) *lci.World {
	opts = append([]lci.WorldOption{lci.WithRuntimeConfig(core.Config{
		PacketsPerWorker: 256,
		PreRecvs:         64,
	})}, opts...)
	return lci.NewWorld(ranks, opts...)
}

func i64buf(vals ...int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

func f64buf(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// fillPattern writes a deterministic byte pattern derived from seed.
func fillPattern(b []byte, seed int) {
	for i := range b {
		b[i] = byte(seed*131 + i*7)
	}
}

// TestBroadcastAlgorithms checks bit-exact broadcast across rank counts,
// roots, algorithms and sizes (eager and rendezvous).
func TestBroadcastAlgorithms(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 8} {
		for _, alg := range []string{"", lci.CollFlat, lci.CollBinomial} {
			for _, size := range []int{8, 20000} {
				name := fmt.Sprintf("ranks=%d/alg=%s/size=%d", ranks, orDefault(alg), size)
				t.Run(name, func(t *testing.T) {
					w := leanWorld(ranks)
					defer w.Close()
					err := w.Launch(func(rt *lci.Runtime) error {
						for root := 0; root < ranks; root++ {
							want := make([]byte, size)
							fillPattern(want, root+size)
							buf := make([]byte, size)
							if rt.Rank() == root {
								copy(buf, want)
							}
							var opts []lci.Option
							if alg != "" {
								opts = append(opts, lci.WithCollAlgorithm(alg))
							}
							if err := rt.Broadcast(buf, root, opts...); err != nil {
								return err
							}
							if !bytes.Equal(buf, want) {
								return fmt.Errorf("rank %d root %d: broadcast payload mismatch", rt.Rank(), root)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestReduceOpsAndTypes checks the op table: sum/min/max over
// int64/float64 plus a user function, at root and non-root ranks.
func TestReduceOpsAndTypes(t *testing.T) {
	const ranks = 4
	w := leanWorld(ranks)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		r := int64(rt.Rank())
		cases := []struct {
			name string
			dt   lci.Datatype
			op   lci.ReduceOp
			send []byte
			want []byte
		}{
			{"sum-int64", lci.Int64, lci.OpSum, i64buf(r+1, 10*(r+1)), i64buf(1+2+3+4, 10+20+30+40)},
			{"min-int64", lci.Int64, lci.OpMin, i64buf(r - 2), i64buf(-2)},
			{"max-int64", lci.Int64, lci.OpMax, i64buf(r * r), i64buf(9)},
			{"sum-float64", lci.Float64, lci.OpSum, f64buf(0.5 * float64(r+1)), f64buf(0.5 * 10)},
			{"min-float64", lci.Float64, lci.OpMin, f64buf(float64(r) - 0.5), f64buf(-0.5)},
			{"max-float64", lci.Float64, lci.OpMax, f64buf(float64(r) / 2), f64buf(1.5)},
			{"user-xor", lci.Int64, lci.OpFunc(func(dst, src []byte) {
				for i := range dst {
					dst[i] ^= src[i]
				}
			}), i64buf(1 << r), i64buf(1 | 2 | 4 | 8)},
		}
		for root := 0; root < ranks; root++ {
			for _, tc := range cases {
				var recv []byte
				if rt.Rank() == root {
					recv = make([]byte, len(tc.send))
				}
				if err := rt.Reduce(tc.send, recv, tc.dt, tc.op, root); err != nil {
					return fmt.Errorf("%s root %d: %w", tc.name, root, err)
				}
				if rt.Rank() == root && !bytes.Equal(recv, tc.want) {
					return fmt.Errorf("%s root %d: got % x want % x", tc.name, root, recv, tc.want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceAlgorithms checks bit-exact allreduce under both
// algorithms across power-of-two and odd rank counts and across the
// eager and rendezvous protocols.
func TestAllreduceAlgorithms(t *testing.T) {
	for _, ranks := range []int{2, 3, 4, 8} {
		for _, alg := range []string{"", lci.CollRDouble, lci.CollReduceBcast} {
			if alg == lci.CollRDouble && ranks&(ranks-1) != 0 {
				continue
			}
			for _, elems := range []int{1, 3000} {
				name := fmt.Sprintf("ranks=%d/alg=%s/elems=%d", ranks, orDefault(alg), elems)
				t.Run(name, func(t *testing.T) {
					w := leanWorld(ranks)
					defer w.Close()
					err := w.Launch(func(rt *lci.Runtime) error {
						send := make([]int64, elems)
						want := make([]int64, elems)
						for i := range send {
							send[i] = int64(rt.Rank()+1) * int64(i+1)
							want[i] = int64(ranks*(ranks+1)/2) * int64(i+1)
						}
						recv := make([]byte, 8*elems)
						var opts []lci.Option
						if alg != "" {
							opts = append(opts, lci.WithCollAlgorithm(alg))
						}
						if err := rt.Allreduce(i64buf(send...), recv, lci.Int64, lci.OpSum, opts...); err != nil {
							return err
						}
						if !bytes.Equal(recv, i64buf(want...)) {
							return fmt.Errorf("rank %d: allreduce mismatch", rt.Rank())
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestAllgatherAlgorithms checks both allgather algorithms across rank
// counts and block sizes.
func TestAllgatherAlgorithms(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 8} {
		for _, alg := range []string{"", lci.CollFlat, lci.CollRing} {
			for _, size := range []int{8, 9000} {
				name := fmt.Sprintf("ranks=%d/alg=%s/size=%d", ranks, orDefault(alg), size)
				t.Run(name, func(t *testing.T) {
					w := leanWorld(ranks)
					defer w.Close()
					err := w.Launch(func(rt *lci.Runtime) error {
						send := make([]byte, size)
						fillPattern(send, rt.Rank())
						recv := make([]byte, ranks*size)
						var opts []lci.Option
						if alg != "" {
							opts = append(opts, lci.WithCollAlgorithm(alg))
						}
						if err := rt.Allgather(send, recv, opts...); err != nil {
							return err
						}
						want := make([]byte, size)
						for r := 0; r < ranks; r++ {
							fillPattern(want, r)
							if !bytes.Equal(recv[r*size:(r+1)*size], want) {
								return fmt.Errorf("rank %d: block %d mismatch", rt.Rank(), r)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestNonblockingHandle drives the Start/Test/Wait state machine
// explicitly: Test is false before Start, Start twice errors, and the
// caller's polling loop both progresses and completes the collective.
func TestNonblockingHandle(t *testing.T) {
	const ranks = 4
	w := leanWorld(ranks)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		send := i64buf(int64(rt.Rank() + 1))
		recv := make([]byte, 8)
		h, err := rt.IAllreduce(send, recv, lci.Int64, lci.OpSum)
		if err != nil {
			return err
		}
		if h.Test() {
			return errors.New("Test reported completion before Start")
		}
		if err := h.Start(); err != nil {
			return err
		}
		if err := h.Start(); err == nil {
			return errors.New("second Start did not error")
		}
		for !h.Test() {
			rt.Progress()
		}
		if err := h.Err(); err != nil {
			return err
		}
		if !bytes.Equal(recv, i64buf(1+2+3+4)) {
			return errors.New("nonblocking allreduce result mismatch")
		}
		// Wait after completion is a no-op returning the stored error.
		return h.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollHandleAcrossBlocking: a started nonblocking collective must
// keep making progress while its rank waits inside a LATER blocking
// collective — the blocking wait loop drains compatible live handles'
// deferred posts. Without that, rank 0's allreduce would stall at an
// interior round (its next send sits queued, posted by nobody) while
// ranks 1..n-1 wait for it inside Wait, and rank 0 spins in Barrier.
func TestCollHandleAcrossBlocking(t *testing.T) {
	const ranks = 4
	w := leanWorld(ranks)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		send := i64buf(int64(rt.Rank() + 1))
		recv := make([]byte, 8)
		h, err := rt.IAllreduce(send, recv, lci.Int64, lci.OpSum, lci.WithCollAlgorithm(lci.CollRDouble))
		if err != nil {
			return err
		}
		if err := h.Start(); err != nil {
			return err
		}
		if rt.Rank() == 0 {
			// Rank 0 enters the barrier with the multi-round allreduce
			// still in flight; the barrier's progress must carry it.
			if err := rt.Barrier(); err != nil {
				return err
			}
			if err := h.Wait(); err != nil {
				return err
			}
		} else {
			if err := h.Wait(); err != nil {
				return err
			}
			if err := rt.Barrier(); err != nil {
				return err
			}
		}
		if !bytes.Equal(recv, i64buf(1+2+3+4)) {
			return fmt.Errorf("rank %d: allreduce result mismatch", rt.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollEpochWrapResync crosses the collectives' epoch window several
// times on a non-synchronizing kind, proving recycled tag windows (and
// the auto-inserted resync barriers) never mismatch payloads.
func TestCollEpochWrapResync(t *testing.T) {
	const ranks = 3
	const calls = 2*128 + 9 // cross the 128-epoch window twice
	w := leanWorld(ranks)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		for i := 0; i < calls; i++ {
			root := i % ranks
			buf := make([]byte, 16)
			want := make([]byte, 16)
			fillPattern(want, i)
			if rt.Rank() == root {
				copy(buf, want)
			}
			if err := rt.Broadcast(buf, root); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d call %d: payload mismatch", rt.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollOutstandingAgeCap: a rank cannot issue a collective while one
// of the same kind issued 32+ calls ago is still unfinished — an
// unpolled handle's parked receives would cross-match once its tag
// epoch recycles. The cap also bounds the outstanding count.
func TestCollOutstandingAgeCap(t *testing.T) {
	w := leanWorld(2)
	defer w.Close()
	rt, err := w.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	buf := make([]byte, 8)
	var handles []*lci.Coll
	for i := 0; ; i++ {
		h, err := rt.IBcast(buf, 0)
		if err != nil {
			if i != 32 {
				t.Fatalf("age cap hit at %d unpolled handles, want 32", i)
			}
			break
		}
		handles = append(handles, h)
	}
	_ = handles
}

// TestCollStaleHandleBlocksKind: one abandoned handle must stop the
// kind (and, for its embedded resync barrier, the barrier kind) before
// its tag window recycles, even when every later call completes — and
// completing the stale handle unblocks everything.
func TestCollStaleHandleBlocksKind(t *testing.T) {
	const ranks = 2
	w := leanWorld(ranks)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		buf := make([]byte, 8)
		stale, err := rt.IBcast(buf, 0) // built, never polled
		if err != nil {
			return err
		}
		staleBuf := make([]byte, 8)
		if rt.Rank() == 0 {
			copy(staleBuf, "stale-ok")
		}
		stale2, err := rt.IBcast(staleBuf, 0)
		if err != nil {
			return err
		}
		_ = stale
		// 30 completed broadcasts bring the stale handle's age to 32.
		for i := 0; i < 30; i++ {
			b := make([]byte, 8)
			if err := rt.Broadcast(b, 0); err != nil {
				return err
			}
		}
		if _, err := rt.IBcast(buf, 0); err == nil {
			return errors.New("builder accepted a call while a 32-call-old handle is outstanding")
		}
		// Finishing the oldest stale handle moves the kind's horizon to
		// the second one, which is still young enough — calls flow again.
		if err := stale.Wait(); err != nil {
			return err
		}
		ok := make([]byte, 8)
		if rt.Rank() == 0 {
			copy(ok, "flow-ok!")
		}
		if err := rt.Broadcast(ok, 0); err != nil {
			return err
		}
		if string(ok) != "flow-ok!" {
			return fmt.Errorf("post-unblock broadcast payload %q", ok)
		}
		return stale2.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollAlgorithmValidation: unknown and inapplicable algorithm names
// fail the call on every collective.
func TestCollAlgorithmValidation(t *testing.T) {
	w := leanWorld(3)
	defer w.Close()
	rt, err := w.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	buf := make([]byte, 8)
	if err := rt.Broadcast(buf, 0, lci.WithCollAlgorithm("nope")); err == nil {
		t.Error("broadcast accepted unknown algorithm")
	}
	if err := rt.Broadcast(buf, 3); err == nil {
		t.Error("broadcast accepted out-of-range root")
	}
	// Recursive doubling needs a power-of-two rank count; 3 ranks must fail.
	if _, err := rt.IAllreduce(buf, make([]byte, 8), lci.Int64, lci.OpSum, lci.WithCollAlgorithm(lci.CollRDouble)); err == nil {
		t.Error("allreduce accepted rdouble at 3 ranks")
	}
	if err := rt.Allgather(buf, make([]byte, 8)); err == nil {
		t.Error("allgather accepted mis-sized recv")
	}
	if err := rt.Allreduce(buf, make([]byte, 8), lci.Int64, lci.ReduceOp{}); err == nil {
		t.Error("allreduce accepted zero-value op")
	}
	if err := rt.Allreduce(make([]byte, 7), make([]byte, 7), lci.Int64, lci.OpSum); err == nil {
		t.Error("allreduce accepted non-multiple-of-8 int64 buffer")
	}
	if err := rt.Barrier(lci.WithCollAlgorithm("hypercube")); err == nil {
		t.Error("barrier accepted unknown algorithm")
	}
}

// TestCollAffinityDevice: collectives given an affinity ride the pinned
// (same-domain) device — the other pool device sees no traffic.
func TestCollAffinityDevice(t *testing.T) {
	const ranks = 3
	w := leanWorld(ranks,
		lci.WithRuntimeConfig(core.Config{NumDevices: 2, PacketsPerWorker: 256, PreRecvs: 64}),
		lci.WithTopology(lci.TopoUniform(2, 2)))
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		a := rt.RegisterThreadAt(2) // core 2 → domain 1 → device 1 under PlaceLocal
		if a.Device().Index() != 1 {
			return fmt.Errorf("expected affinity on device 1, got %d", a.Device().Index())
		}
		for i := 0; i < 4; i++ {
			if err := rt.Barrier(lci.WithAffinity(a)); err != nil {
				return err
			}
		}
		send := i64buf(int64(rt.Rank()))
		recv := make([]byte, 8)
		if err := rt.Allreduce(send, recv, lci.Int64, lci.OpSum, lci.WithAffinity(a)); err != nil {
			return err
		}
		if got := int64(binary.LittleEndian.Uint64(recv)); got != 0+1+2 {
			return fmt.Errorf("allreduce got %d", got)
		}
		if msgs := rt.Telemetry().Snapshot().Devices[0].Gauges.Net.Msgs; msgs != 0 {
			return fmt.Errorf("device 0 saw %d messages; pinned collectives must ride device 1", msgs)
		}
		if msgs := rt.Telemetry().Snapshot().Devices[1].Gauges.Net.Msgs; msgs == 0 {
			return fmt.Errorf("device 1 saw no traffic")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierAllocs is the allocs-per-op assertion for the barrier port:
// the dissemination rounds reuse the Comm's pooled counters and buffers,
// so a blocking Barrier call allocates nothing in the collective layer
// (the bound absorbs the core posting path's per-receive bookkeeping,
// counted across BOTH ranks of the world).
func TestBarrierAllocs(t *testing.T) {
	if bench.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	w := leanWorld(2)
	defer w.Close()
	rt0, err := w.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rt0.Close()
	rt1, err := w.NewRuntime(1)
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()

	// One goroutine drives both ranks — rank 1 through the nonblocking
	// handle — so the interleaving (and thus which arrival path every
	// message takes) is exactly reproducible: zero measurement noise.
	// Rank 1 enters first; in-process delivery is synchronous, so rank
	// 0's blocking barrier then completes on its own progress alone.
	// The settle spin outlasts the provider's injection pacer
	// (InjectGapNs) between pairs: h1's root send must not hit a pacer
	// Retry, because nothing re-polls h1 while rank 0's blocking
	// barrier waits (a deadlock this one-goroutine harness would not
	// survive, and an allocation path change besides).
	settle := func() {
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		}
	}
	barrierPair := func() {
		settle()
		h1, err := rt1.IBarrier()
		if err != nil {
			t.Fatal(err)
		}
		if err := h1.Start(); err != nil {
			t.Fatal(err)
		}
		if err := rt0.Barrier(); err != nil {
			t.Fatal(err)
		}
		for !h1.Test() {
			rt1.Progress()
		}
	}
	for i := 0; i < 4; i++ { // warm both ranks' packet workers and engines
		barrierPair()
	}
	// Count mallocs per pair directly (testing.AllocsPerRun's
	// GOMAXPROCS(1) fiddling charges runtime bookkeeping that varies with
	// what earlier tests did to the process) and assert on the median:
	// the deterministic pair measures exactly 25, with occasional bursts
	// from amortized container growth that a median ignores. GC off keeps
	// a collection from pacing into the samples.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	samples := make([]int, 101)
	for i := range samples {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		barrierPair()
		runtime.ReadMemStats(&ms)
		samples[i] = int(ms.Mallocs - before)
	}
	sort.Ints(samples)
	avg := float64(samples[len(samples)/2])
	// The measured pair costs exactly 25 allocations: rank 1's graph
	// build (the nonblocking form allocates its graph, nodes and handle
	// by design) plus both ranks' core posting-path bookkeeping (parked
	// receives, simulated-wire copies). Rank 0's blocking barrier
	// contributes zero collective-layer allocations — the pre-port
	// per-round counter pair and options slice added 3 per round and
	// trip this bound.
	if avg > 27 {
		t.Errorf("barrier pair allocates %.0f objects/op, want <= 27 (blocking-side garbage regressed?)", avg)
	}
	t.Logf("Barrier: %.0f allocs/op median (blocking rank 0 + nonblocking rank 1)", avg)
}

// BenchmarkBarrier reports the blocking barrier's allocation footprint,
// using the same deterministic single-goroutine pair as
// TestBarrierAllocs (rank 1 through the nonblocking handle) — a
// free-running partner goroutine would race its shutdown check against
// the final release barrier and could leave rank 0 spinning partnerless.
func BenchmarkBarrier(b *testing.B) {
	w := leanWorld(2)
	defer w.Close()
	rt0, err := w.NewRuntime(0)
	if err != nil {
		b.Fatal(err)
	}
	defer rt0.Close()
	rt1, err := w.NewRuntime(1)
	if err != nil {
		b.Fatal(err)
	}
	defer rt1.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		} // outlast the injection pacer (see TestBarrierAllocs)
		h1, err := rt1.IBarrier()
		if err != nil {
			b.Fatal(err)
		}
		if err := h1.Start(); err != nil {
			b.Fatal(err)
		}
		if err := rt0.Barrier(); err != nil {
			b.Fatal(err)
		}
		for !h1.Test() {
			rt1.Progress()
		}
	}
}

func orDefault(alg string) string {
	if alg == "" {
		return "auto"
	}
	return alg
}
