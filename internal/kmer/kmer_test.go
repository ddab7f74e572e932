package kmer_test

import (
	"sync"
	"testing"
	"testing/quick"

	"lci"
	"lci/internal/kmer"
	"lci/internal/lcw"
)

func TestKmerEncodeDecodeRoundTrip(t *testing.T) {
	for _, seq := range []string{"A", "ACGT", "TTTTTTTTTT", "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACG"} {
		km, ok := kmer.Encode([]byte(seq))
		if !ok {
			t.Fatalf("Encode(%q) rejected", seq)
		}
		if got := km.Decode(len(seq)); got != seq {
			t.Errorf("round trip %q -> %q", seq, got)
		}
	}
}

func TestKmerEncodeRejectsNonACGT(t *testing.T) {
	if _, ok := kmer.Encode([]byte("ACGN")); ok {
		t.Fatal("Encode accepted N")
	}
}

func TestKmerRevCompInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > kmer.MaxK {
			raw = raw[:kmer.MaxK]
		}
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = "ACGT"[b&3]
		}
		km, _ := kmer.Encode(seq)
		n := len(seq)
		return km.RevComp(n).RevComp(n) == km
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKmerCanonicalStable(t *testing.T) {
	// canonical(x) == canonical(revcomp(x)) — the property that makes
	// counting strand-independent.
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > kmer.MaxK {
			raw = raw[:kmer.MaxK]
		}
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = "ACGT"[b&3]
		}
		km, _ := kmer.Encode(seq)
		n := len(seq)
		return km.Canonical(n) == km.RevComp(n).Canonical(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := kmer.NewBloom(1<<16, 4)
	var kms []kmer.Kmer
	for i := 0; i < 500; i++ {
		kms = append(kms, kmer.Kmer{Lo: uint64(i) * 77, Hi: uint64(i)})
	}
	for _, km := range kms {
		b.Insert(km)
	}
	for _, km := range kms {
		if !b.SeenOnce(km) {
			t.Fatalf("false negative after one insert: %+v", km)
		}
	}
	for _, km := range kms {
		b.Insert(km)
	}
	for _, km := range kms {
		if !b.SeenTwice(km) {
			t.Fatalf("false negative in layer two: %+v", km)
		}
	}
}

func TestBloomTwoLayerSemantics(t *testing.T) {
	b := kmer.NewBloom(1<<20, 4)
	km := kmer.Kmer{Lo: 12345}
	if b.SeenOnce(km) || b.SeenTwice(km) {
		t.Fatal("fresh filter reports seen")
	}
	if seen := b.Insert(km); seen {
		t.Fatal("first insert reported as repeat")
	}
	if b.SeenTwice(km) {
		t.Fatal("layer two set after one insert")
	}
	if seen := b.Insert(km); !seen {
		t.Fatal("second insert not reported as repeat")
	}
	if !b.SeenTwice(km) {
		t.Fatal("layer two unset after two inserts")
	}
}

// TestBloomConcurrentInsertsPromote: two goroutines insert the same
// k-mers at the same time, so every k-mer is inserted exactly twice, and
// each must then be in layer two — whichever insert came second has to
// observe the first one's layer-one bits.
func TestBloomConcurrentInsertsPromote(t *testing.T) {
	const kmers = 20_000
	for round := 0; round < 8; round++ {
		b := kmer.NewBloom(kmers*64, 4)
		km := func(i int) kmer.Kmer { return kmer.Kmer{Lo: uint64(i) * 0x9e3779b97f4a7c15, Hi: uint64(round)} }
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < kmers; i++ {
					b.Insert(km(i))
				}
			}()
		}
		close(start)
		wg.Wait()
		for i := 0; i < kmers; i++ {
			if !b.SeenTwice(km(i)) {
				t.Fatalf("round %d: k-mer %d inserted twice is not in layer two", round, i)
			}
		}
	}
}

func TestCountMapBasic(t *testing.T) {
	m := kmer.NewCountMap(1000)
	a := kmer.Kmer{Lo: 1}
	bk := kmer.Kmer{Lo: 2, Hi: 9}
	if m.Get(a) != 0 {
		t.Fatal("fresh map nonzero")
	}
	m.Add(a, 1)
	m.Add(a, 2)
	m.Add(bk, 5)
	if m.Get(a) != 3 || m.Get(bk) != 5 {
		t.Fatalf("counts: %d, %d", m.Get(a), m.Get(bk))
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestCountMapConcurrentVsModel(t *testing.T) {
	m := kmer.NewCountMap(4096)
	const threads = 8
	const keys = 1000
	const perThread = 20_000
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for i := 0; i < perThread; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				m.Add(kmer.Kmer{Lo: x % keys}, 1)
			}
		}(uint64(th + 1))
	}
	wg.Wait()
	var total int64
	m.Range(func(_ kmer.Kmer, c int64) bool {
		total += c
		return true
	})
	if total != threads*perThread {
		t.Fatalf("total = %d, want %d (lost updates)", total, threads*perThread)
	}
}

func TestReadsDeterministicAndPartitioned(t *testing.T) {
	cfg := kmer.DefaultReadsConfig()
	cfg.NumReads = 100
	g := kmer.Genome(cfg)
	all := kmer.Reads(cfg, g, 0, 1)
	var parts [][]byte
	for r := 0; r < 4; r++ {
		parts = append(parts, kmer.Reads(cfg, g, r, 4)...)
	}
	if len(all) != len(parts) {
		t.Fatalf("partitioned read count %d != %d", len(parts), len(all))
	}
	for i := range all {
		if string(all[i]) != string(parts[i]) {
			t.Fatalf("read %d differs between partitionings", i)
		}
	}
}

func smallConfig(threads int) kmer.Config {
	return kmer.Config{
		Reads: kmer.ReadsConfig{
			GenomeLen: 20_000,
			ReadLen:   80,
			NumReads:  1500,
			ErrorRate: 0.005,
			Seed:      42,
		},
		K:                21,
		Threads:          threads,
		AggBytes:         2048,
		BloomBitsPerKmer: 64, // near-zero false positives => exact vs oracle
	}
}

// runKmer runs the pipeline over the given backend in the application
// layout (lcw.AppConfig).
func runKmer(t *testing.T, kind lcw.Kind, ranks, threads int) []kmer.Result {
	t.Helper()
	cfg := smallConfig(threads)
	job, err := lcw.NewJob(lcw.AppConfig(kind, ranks, threads), lci.SimExpanse())
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()
	results := make([]kmer.Result, ranks)
	err = job.Launch(func(c *lcw.Comm) error {
		res, err := kmer.Run(c, cfg)
		results[c.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func checkAgainstOracle(t *testing.T, results []kmer.Result, cfg kmer.Config) {
	t.Helper()
	wantHist, wantDistinct, wantTotal := kmer.SequentialOracle(cfg)
	gotHist := make(map[int64]int64)
	var gotDistinct, gotTotal int64
	for _, r := range results {
		for c, n := range r.Histogram {
			gotHist[c] += n
		}
		gotDistinct += r.Distinct
		gotTotal += r.Total
	}
	if gotTotal != wantTotal {
		t.Errorf("total k-mer instances = %d, want %d", gotTotal, wantTotal)
	}
	if gotDistinct != wantDistinct {
		t.Errorf("distinct counted k-mers = %d, want %d", gotDistinct, wantDistinct)
	}
	for c, n := range wantHist {
		if gotHist[c] != n {
			t.Errorf("histogram[%d] = %d, want %d", c, gotHist[c], n)
		}
	}
	for c, n := range gotHist {
		if wantHist[c] != n {
			t.Errorf("histogram[%d] = %d, want %d", c, n, wantHist[c])
		}
	}
}

func TestKmerPipelineLCIMatchesOracle(t *testing.T) {
	checkAgainstOracle(t, runKmer(t, lcw.LCI, 3, 2), smallConfig(2))
}

func TestKmerPipelineGASNetMatchesOracle(t *testing.T) {
	checkAgainstOracle(t, runKmer(t, lcw.GASNET, 3, 2), smallConfig(2))
}

// TestKmerPipelineMPIMatchesOracle runs the pipeline over the MPI
// baseline with one VCI and with a VCI per thread: the coalescer path
// the GASNet test covers, over per-thread receive pools.
func TestKmerPipelineMPIMatchesOracle(t *testing.T) {
	for _, kind := range []lcw.Kind{lcw.MPI, lcw.MPIX} {
		t.Run(kind.String(), func(t *testing.T) {
			checkAgainstOracle(t, runKmer(t, kind, 3, 2), smallConfig(2))
		})
	}
}

func TestKmerSingleRankSingleThread(t *testing.T) {
	// The "reference implementation" shape: one rank, one thread.
	checkAgainstOracle(t, runKmer(t, lcw.LCI, 1, 1), smallConfig(1))
}
