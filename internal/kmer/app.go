package kmer

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lci/internal/lcw"
)

// Message kinds on the wire. Batch kinds tag individual records on the
// lcw.RecordSender path; done/barrier kinds travel as raw control sends.
const (
	kindBatch1  = 1 + iota // pass-1 k-mer record (Bloom insert)
	kindBatch2             // pass-2 k-mer record (map counting)
	kindDone1              // pass-1 completion: total k-mers sent to you
	kindDone2              // pass-2 completion
	kindBarrier            // inter-pass barrier token
)

const kmerBytes = 16

// Config parameterizes one mini-app run.
type Config struct {
	Reads   ReadsConfig
	K       int // k-mer length (paper: 51)
	Threads int // worker threads per rank
	// AggBytes is the per-destination aggregation buffer size (paper:
	// 8 KB per destination).
	AggBytes int
	// BloomBitsPerKmer sizes the per-rank Bloom filter (default 12 bits
	// per expected k-mer, ~4 hash probes).
	BloomBitsPerKmer int
}

// DefaultConfig returns a laptop-scale configuration (k=51 like the
// paper).
func DefaultConfig() Config {
	return Config{
		Reads:            DefaultReadsConfig(),
		K:                51,
		Threads:          4,
		AggBytes:         8192,
		BloomBitsPerKmer: 12,
	}
}

// Result summarizes one rank's run.
type Result struct {
	Elapsed    time.Duration
	Histogram  map[int64]int64 // occurrence count -> number of distinct k-mers (this rank's share)
	Distinct   int64           // distinct k-mers counted at this rank
	Total      int64           // total k-mer instances processed (local + received)
	StashLen   int             // cuckoo overflow entries (diagnostic)
	BloomFPish int64           // k-mers counted exactly once (Bloom false-positive proxy)
}

type app struct {
	cfg   Config
	c     *lcw.Comm
	rank  int
	n     int
	reads [][]byte

	bloom *Bloom
	cmap  *CountMap

	rs lcw.RecordSender // aggregated k-mer record path over c

	pass      atomic.Int32
	recvCount [2]atomic.Int64 // k-mers received per pass
	expected  [2]atomic.Int64 // k-mers peers announced per pass
	dones     [2]atomic.Int32 // done messages per pass
	barriers  atomic.Int32    // barrier tokens received (cumulative)
	sentTo    []atomic.Int64  // per-dest counts for the current pass
	total     atomic.Int64
}

// Run executes the two-pass k-mer counting pipeline on this rank, worker
// thread t using c.Thread(t) (cfg.Threads must not exceed the Comm's
// threads). All ranks must call Run with identical configurations; Run
// returns after the global pipeline completes.
func Run(c *lcw.Comm, cfg Config) (Result, error) {
	if cfg.K < 1 || cfg.K > MaxK {
		return Result{}, fmt.Errorf("kmer: k=%d out of range [1,%d]", cfg.K, MaxK)
	}
	if cfg.Threads < 1 {
		return Result{}, fmt.Errorf("kmer: need at least one thread")
	}
	if cfg.AggBytes <= kmerBytes+8 {
		cfg.AggBytes = 8192
	}
	if cfg.BloomBitsPerKmer <= 0 {
		cfg.BloomBitsPerKmer = 12
	}

	a := &app{cfg: cfg, c: c, rank: c.Rank(), n: c.NumRanks()}
	genome := Genome(cfg.Reads)
	a.reads = Reads(cfg.Reads, genome, a.rank, a.n)

	kmersPerRead := cfg.Reads.ReadLen - cfg.K + 1
	if kmersPerRead < 0 {
		kmersPerRead = 0
	}
	expectedKmers := (cfg.Reads.NumReads*kmersPerRead)/a.n + 1
	a.bloom = NewBloom(uint64(expectedKmers*cfg.BloomBitsPerKmer), 4)
	a.cmap = NewCountMap(expectedKmers)
	a.sentTo = make([]atomic.Int64, a.n)

	// K-mer batches ride the aggregated record path (internal/agg on
	// LCI, the generic coalescer elsewhere); done/barrier control
	// messages stay on raw sends into a.sink.
	a.rs = lcw.Records(c, cfg.AggBytes, a.record, a.sink)

	start := time.Now()
	a.runPass(1)
	a.barrier(1)
	a.runPass(2)
	a.barrier(2)
	elapsed := time.Since(start)

	res := Result{
		Elapsed:   elapsed,
		Histogram: make(map[int64]int64),
		StashLen:  a.cmap.StashLen(),
		Total:     a.total.Load(),
	}
	a.cmap.Range(func(_ Kmer, c int64) bool {
		res.Histogram[c]++
		res.Distinct++
		if c == 1 {
			res.BloomFPish++
		}
		return true
	})
	return res, nil
}

// record handles one arrived k-mer record ([kind][16-byte k-mer]). It
// must be thread-safe: any progressing thread may invoke it, and the
// record is only valid during the call.
func (a *app) record(src int, rec []byte) {
	_ = src
	pass := 0
	if rec[0] == kindBatch2 {
		pass = 1
	}
	a.insert(FromBytes(rec[1:]), pass)
	a.recvCount[pass].Add(1)
}

// sink handles one arrived raw (control) payload. It must be
// thread-safe: any progressing thread may invoke it.
func (a *app) sink(src int, payload []byte) {
	switch payload[0] {
	case kindDone1:
		a.expected[0].Add(int64(binary.LittleEndian.Uint64(payload[1:])))
		a.dones[0].Add(1)
	case kindDone2:
		a.expected[1].Add(int64(binary.LittleEndian.Uint64(payload[1:])))
		a.dones[1].Add(1)
	case kindBarrier:
		a.barriers.Add(1)
	default:
		panic(fmt.Sprintf("kmer: unknown message kind %d", payload[0]))
	}
}

// insert applies one k-mer instance to this rank's data structures.
// pass is 0-based. Total counts each instance once (during pass 1).
func (a *app) insert(km Kmer, pass int) {
	if pass == 0 {
		a.total.Add(1)
		a.bloom.Insert(km)
		return
	}
	if a.bloom.SeenTwice(km) {
		a.cmap.Add(km, 1)
	}
}

// add hands one k-mer to dst's aggregated record path. SendRecord
// coalesces per destination and blocks (with internal progress) rather
// than queue unboundedly, so the count is final once it returns.
func (a *app) add(dst int, km Kmer, tid int, kind byte) {
	var rec [1 + kmerBytes]byte
	rec[0] = kind
	km.Bytes(rec[1:])
	a.rs.SendRecord(dst, rec[:], tid)
	a.sentTo[dst].Add(1)
}

// runPass executes one traversal of the local reads.
func (a *app) runPass(pass int) {
	a.pass.Store(int32(pass))
	kind := byte(kindBatch1)
	doneKind := byte(kindDone1)
	if pass == 2 {
		kind = kindBatch2
		doneKind = kindDone2
	}
	for i := range a.sentTo {
		a.sentTo[i].Store(0)
	}

	workers := a.cfg.Threads
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			th := a.c.Thread(tid)
			sinceServe := 0
			lo := len(a.reads) * tid / workers
			hi := len(a.reads) * (tid + 1) / workers
			for _, read := range a.reads[lo:hi] {
				ForEachKmer(read, a.cfg.K, func(km Kmer) {
					owner := km.Owner(a.n)
					if owner == a.rank {
						a.insert(km, pass-1)
					} else {
						a.add(owner, km, tid, kind)
					}
					sinceServe++
					if sinceServe >= 256 {
						sinceServe = 0
						th.Progress()
					}
				})
			}
		}(tid)
	}
	wg.Wait()

	// Flush stragglers (every destination, waiting for in-flight batch
	// buffers on the LCI path), then announce totals — the done counts
	// must not overtake the records they describe.
	a.rs.FlushRecords(0)
	for dst := 0; dst < a.n; dst++ {
		if dst == a.rank {
			continue
		}
		var msg [9]byte
		msg[0] = doneKind
		binary.LittleEndian.PutUint64(msg[1:], uint64(a.sentTo[dst].Load()))
		lcw.Send(a.c.Thread(0), dst, msg[:])
	}

	// Serve until this rank has received everything addressed to it.
	// Every thread must be progressed: peers address their batches to the
	// resources matching their sending thread.
	p := pass - 1
	for a.dones[p].Load() < int32(a.n-1) || a.recvCount[p].Load() < a.expected[p].Load() {
		if a.serveAll() == 0 {
			runtime.Gosched()
		}
	}
}

// serveAll progresses every worker thread's resources once, from the
// calling goroutine (the workers have returned).
func (a *app) serveAll() int {
	n := 0
	for tid := 0; tid < a.cfg.Threads; tid++ {
		n += a.c.Thread(tid).Progress()
	}
	return n
}

// barrier waits until every rank has finished the given pass (the k-th
// barrier overall), so pass-2 queries never race pass-1 inserts.
func (a *app) barrier(k int) {
	for dst := 0; dst < a.n; dst++ {
		if dst == a.rank {
			continue
		}
		lcw.Send(a.c.Thread(0), dst, []byte{kindBarrier})
	}
	for a.barriers.Load() < int32(k*(a.n-1)) {
		if a.serveAll() == 0 {
			runtime.Gosched()
		}
	}
}

// SequentialOracle computes the exact histogram for cfg on one thread
// (no transport, no Bloom filter): the ground truth for tests. It returns
// (histogram of counts>=2, distinct kmers with count>=2, total kmer
// instances).
func SequentialOracle(cfg Config) (map[int64]int64, int64, int64) {
	genome := Genome(cfg.Reads)
	counts := make(map[Kmer]int64)
	var total int64
	reads := Reads(cfg.Reads, genome, 0, 1)
	for _, read := range reads {
		ForEachKmer(read, cfg.K, func(km Kmer) {
			counts[km]++
			total++
		})
	}
	hist := make(map[int64]int64)
	var distinct int64
	for _, c := range counts {
		if c >= 2 {
			hist[c]++
			distinct++
		}
	}
	return hist, distinct, total
}
