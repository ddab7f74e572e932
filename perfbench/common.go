package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lci"
)

// splitmix is the SplitMix64 step: the benchmark's one hash and PRNG, so
// a seed fixes every payload byte, post order and record destination.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash mixes several words into one.
func hash(ws ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, w := range ws {
		h = splitmix(h ^ w)
	}
	return h
}

// fillSeeded fills b with the byte stream of seed.
func fillSeeded(b []byte, seed uint64) {
	x := seed
	for i := 0; i < len(b); i += 8 {
		x = splitmix(x)
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(x >> (8 * j))
		}
	}
}

// reservoir keeps a uniform sample of at most cap(v) values (Algorithm
// R), so a long phase's latency percentiles come from bounded memory
// allocated before timing starts.
type reservoir struct {
	v   []int64
	n   int64
	rng uint64
}

const reservoirCap = 1 << 18

func newReservoir(seed uint64) reservoir {
	return reservoir{v: make([]int64, 0, reservoirCap), rng: seed}
}

func (r *reservoir) add(x int64) {
	r.n++
	if len(r.v) < cap(r.v) {
		r.v = append(r.v, x)
		return
	}
	r.rng = splitmix(r.rng)
	if j := r.rng % uint64(r.n); j < uint64(cap(r.v)) {
		r.v[j] = x
	}
}

// threadResult is what one worker goroutine did in a timed phase.
type threadResult struct {
	lat       reservoir // unit-operation latencies, ns
	units     int64     // unit operations completed
	msgs      int64     // application messages delivered
	bytes     int64     // payload bytes delivered
	attempted int64     // operations attempted (messages, or records)
	failed    int64     // operations that failed a check or completed with an error
	firstFail string    // what the first failure was
}

// fail counts one failed operation and remembers the first reason.
func (r *threadResult) fail(format string, args ...any) {
	r.failed++
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
}

// phaseResult merges the worker goroutines' results.
type phaseResult struct {
	lat                                   []int64 // sorted
	units, msgs, bytes, attempted, failed int64
	elapsed                               time.Duration
	failures                              []string // first failure of each goroutine that had one
}

func merge(trs []*threadResult, elapsed time.Duration) phaseResult {
	p := phaseResult{elapsed: elapsed}
	for _, t := range trs {
		p.lat = append(p.lat, t.lat.v...)
		p.units += t.units
		p.msgs += t.msgs
		p.bytes += t.bytes
		p.attempted += t.attempted
		p.failed += t.failed
		if t.firstFail != "" {
			p.failures = append(p.failures, t.firstFail)
		}
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	return p
}

func (p phaseResult) p50() float64 { return quantile(p.lat, 0.5) }

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	f := pos - float64(i)
	return float64(xs[i])*(1-f) + float64(xs[i+1])*f
}

// median returns the median of xs, leaving xs as it was.
func median[T int64 | float64](xs []T) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// runThreads runs body on nThreads worker goroutines and waits for them.
// A traced goroutine is locked to its OS thread so that a handler, which
// runs inside whichever goroutine's Progress call delivered the message,
// can find that goroutine's tracer by thread id.
func runThreads(trs [nThreads]*tracer, body func(g int, tr *tracer)) time.Duration {
	var wg sync.WaitGroup
	// start orders every goroutine's tid store before any handler reads it.
	start := spinBarrier{n: nThreads}
	t0 := time.Now()
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := trs[g]
			if tr.on {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				tr.tid = syscall.Gettid()
			}
			start.wait(nil)
			body(g, tr)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// tracerOf returns the tracer of the goroutine running on the calling
// OS thread, or nil when the phase is untraced or the caller is not a
// worker goroutine.
func tracerOf(trs *[nThreads]*tracer) *tracer {
	if !trs[0].on {
		return nil
	}
	tid := syscall.Gettid()
	for _, t := range trs {
		if t.tid == tid {
			return t
		}
	}
	return nil
}

// spinBarrier is an in-process barrier for the worker goroutines. The
// last goroutine to arrive runs decide and publishes its result to every
// goroutine leaving the barrier.
type spinBarrier struct {
	n       int32
	waiting atomic.Int32
	gen     atomic.Uint64
	result  atomic.Bool
}

func (b *spinBarrier) wait(decide func() bool) bool {
	gen := b.gen.Load()
	if b.waiting.Add(1) == b.n {
		b.waiting.Store(0)
		if decide != nil {
			b.result.Store(decide())
		}
		b.gen.Add(1)
		return b.result.Load()
	}
	for i := 0; b.gen.Load() == gen; i++ {
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
	return b.result.Load()
}

// world is the 2-rank World a workload runs on.
type world struct {
	w   *lci.World
	rts [2]*lci.Runtime
}

func (wd *world) snapshot() counters { return readCounters(wd.w, wd.rts) }
func (wd *world) dump(w io.Writer)   { dumpTelemetry(w, wd.rts) }
func (wd *world) close() error       { return wd.w.Close() }

// newRanks builds both ranks of w with a pool of devices devices each.
func newRanks(w *lci.World, devices int) ([2]*lci.Runtime, error) {
	var rts [2]*lci.Runtime
	for r := range rts {
		rt, err := w.NewRuntime(r)
		if err != nil {
			return rts, err
		}
		for rt.NumDevices() < devices {
			if _, err := rt.NewDevice(); err != nil {
				return rts, err
			}
		}
		rts[r] = rt
	}
	return rts, nil
}

// warmFailure reports a warm-up that already failed a check: set-up
// must leave a working world behind.
func warmFailure(res []threadResult, extra int64) error {
	var failed int64
	for _, r := range res {
		failed += r.failed
	}
	if failed+extra > 0 {
		return fmt.Errorf("warm-up: %d failed operations", failed+extra)
	}
	return nil
}

// progress is Runtime.Progress with its span and call counts.
func progress(tr *tracer, rt *lci.Runtime) int {
	sp := tr.begin(spProgress)
	n := rt.Progress()
	tr.end(sp)
	tr.progressCalls++
	if n == 0 {
		tr.progressEmpty++
	}
	return n
}
