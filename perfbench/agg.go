package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"lci"
)

// agg-bsp: fine-grained bulk-synchronous record exchange through the
// aggregator. Each superstep:
//
//  1. the worker goroutines claim 256-record chunks from a shared counter
//     and append 16384 16-byte records per rank, each to the rank (self
//     or peer) a hash of the seed picks;
//  2. each goroutine flushes its own device column on both ranks;
//  3. the goroutines meet at an in-process barrier;
//  4. goroutine g runs rank g's IAllreduce of the per-destination record
//     counts and content sums;
//  5. each goroutine polls its columns until every record has arrived,
//     then checks counts and sums against the allreduced totals.
//
// Goroutine g owns device column g (AggThread ThreadOn(g)) on both ranks.

const (
	aggDevices    = 2
	aggRecords    = 16384 // per rank per superstep
	aggChunk      = 256
	aggChunks     = 2 * aggRecords / aggChunk
	aggRecBytes   = 16
	aggWarmSteps  = 8
	aggCountShift = 40 // arrival accumulators hold count<<40 | 24-bit content sum
	aggSumMask    = 1<<24 - 1
)

type aggInst struct {
	world
	ags          [2]*lci.Aggregator
	th           [2][nThreads]*lci.AggThread // [rank][goroutine]
	seed         uint64
	corruptEvery int
	step         [nThreads]uint64
	bar          spinBarrier
	// claim[p] hands out the chunks of supersteps of parity p.
	claim [2]atomic.Int64
	// sent[g][r] is what goroutine g appended on rank r this superstep.
	sent [nThreads][2]aggTally
	// acc[r][col][p] accumulates the records of parity-p supersteps that
	// arrived at rank r through device column col. Only the poller of
	// that column writes it, so the adds do not contend.
	acc [2][nThreads][2]paddedCounter
	bad atomic.Int64 // records whose content failed its check at the sink
	// deadline is read by the barrier's last arriver to stop both
	// goroutines after the same superstep.
	deadline time.Time
}

// aggTally counts records and their content sums by destination rank.
type aggTally struct {
	n, sum [2]int64
	_      [32]byte
}

type paddedCounter struct {
	v atomic.Int64
	_ [56]byte
}

func setupAgg(cfg runConfig) (instance, error) {
	in := &aggInst{
		world: world{w: lci.NewWorld(2, lci.WithPlatform(lci.SimExpanse()))},
		seed:  cfg.seed,
		bar:   spinBarrier{n: nThreads},
	}
	if err := in.build(cfg); err != nil {
		in.w.Close()
		return nil, err
	}
	in.corruptEvery = cfg.corruptEvery // the warm-up stays clean
	return in, nil
}

func (in *aggInst) build(cfg runConfig) error {
	rts, err := newRanks(in.w, aggDevices)
	if err != nil {
		return err
	}
	in.rts = rts
	for r, rt := range in.rts {
		in.ags[r] = rt.NewAggregator(in.sink(r), lci.AggConfig{})
		for g := 0; g < nThreads; g++ {
			in.th[r][g] = in.ags[r].ThreadOn(g)
		}
	}
	var res [nThreads]threadResult
	in.deadline = time.Time{}
	runThreads(offTracers(), func(g int, tr *tracer) {
		in.loop(g, tr, &res[g], int(aggWarmSteps*cfg.warmScale)+1)
	})
	return warmFailure(res[:], 0)
}

// record key layout: bit 0 is the appending goroutine (= device column),
// bit 1 the superstep parity, the rest a hash of seed, superstep, rank
// and record index. The value is a hash of the key, so the sink can
// check every record on its own.
func (in *aggInst) recValue(key uint64) uint64 { return splitmix(key ^ in.seed) }

func (in *aggInst) sink(rank int) lci.AggSink {
	return func(src int, rec []byte) {
		if len(rec) != aggRecBytes {
			in.badRecord("%d-byte record from rank %d", len(rec), src)
			return
		}
		key := binary.LittleEndian.Uint64(rec)
		val := binary.LittleEndian.Uint64(rec[8:])
		add := int64(1) << aggCountShift
		if val == in.recValue(key) {
			add |= int64(val & aggSumMask)
		} else {
			// Still counted as arrived, so the superstep ends; the missing
			// sum fails the superstep's check too.
			in.badRecord("record %x from rank %d fails its content check", rec, src)
		}
		in.acc[rank][key&1][key>>1&1].v.Add(add)
	}
}

// badRecord counts a record that failed its check at the sink and
// reports the first one.
func (in *aggInst) badRecord(format string, args ...any) {
	if in.bad.Add(1) == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: agg-bsp sink: "+format+"\n", args...)
	}
}

func (in *aggInst) run(deadline time.Time, trs [nThreads]*tracer, res [nThreads]*threadResult) (time.Duration, int64) {
	in.deadline = deadline
	bad0 := in.bad.Load()
	elapsed := runThreads(trs, func(g int, tr *tracer) {
		in.loop(g, tr, res[g], -1)
	})
	return elapsed, in.bad.Load() - bad0
}

// loop runs supersteps until the barrier's last arriver sees the
// deadline passed, or count of them when count is not negative.
func (in *aggInst) loop(g int, tr *tracer, r *threadResult, count int) {
	for n := 0; count < 0 || n < count; n++ {
		in.step[g]++
		step := in.step[g]
		u := tr.startUnit(opID(step, g))
		t0 := time.Now()
		stop := in.superstep(g, tr, r, step, count < 0)
		r.lat.add(int64(time.Since(t0)))
		tr.end(u)
		r.units++
		if stop {
			return
		}
	}
}

// superstep runs one superstep for goroutine g and reports whether the
// phase is over.
func (in *aggInst) superstep(g int, tr *tracer, r *threadResult, step uint64, timed bool) bool {
	par := step & 1
	var rec [aggRecBytes]byte
	in.sent[g] = [2]aggTally{}
	// 1. Append.
	for {
		c := in.claim[par].Add(1) - 1
		if c >= aggChunks {
			break
		}
		rank := int(c) / (aggChunks / 2)
		tally := &in.sent[g][rank]
		base := int(c) % (aggChunks / 2) * aggChunk
		for i := base; i < base+aggChunk; i++ {
			h := hash(in.seed, step, uint64(rank), uint64(i))
			dest := int(h >> 63)
			key := h&^3 | par<<1 | uint64(g)
			val := in.recValue(key)
			binary.LittleEndian.PutUint64(rec[:], key)
			binary.LittleEndian.PutUint64(rec[8:], val)
			if in.corruptEvery > 0 && step%uint64(in.corruptEvery) == 0 && i == base {
				rec[12] ^= 0x10
			}
			r.attempted++
			if err := in.append(tr, g, rank, dest, rec[:]); err != nil {
				r.fail("agg-bsp: superstep %d: Append: %v", step, err)
				continue
			}
			tally.n[dest]++
			tally.sum[dest] += int64(val & aggSumMask)
		}
	}
	// 2. Flush this goroutine's column on both ranks.
	for rank := range in.ags {
		for dest := 0; dest < 2; dest++ {
			sp := tr.begin(spFlushDest)
			in.ags[rank].FlushDest(in.th[rank][g], dest)
			tr.end(sp)
		}
	}
	// 3. Barrier. The last arriver prepares the next superstep (no one
	// claims chunks or adds to its arrival accumulators until everyone
	// has left this superstep's arrival wait) and decides whether the
	// phase ends after this superstep.
	stop := in.bar.wait(func() bool {
		in.claim[par^1].Store(0)
		for rank := range in.acc {
			for col := range in.acc[rank] {
				in.acc[rank][col][par^1].v.Store(0)
			}
		}
		return timed && time.Now().After(in.deadline)
	})
	// 4. Goroutine g runs rank g's allreduce of what was sent where.
	var send, recv [32]byte
	for d := 0; d < 2; d++ {
		var n, sum int64
		for t := range in.sent {
			n += in.sent[t][g].n[d]
			sum += in.sent[t][g].sum[d]
		}
		binary.LittleEndian.PutUint64(send[8*d:], uint64(n))
		binary.LittleEndian.PutUint64(send[16+8*d:], uint64(sum))
	}
	if err := in.allreduce(tr, g, send[:], recv[:]); err != nil {
		r.fail("agg-bsp: superstep %d: %v", step, err)
		return true
	}
	// 5. Wait for every record of this superstep, on both ranks.
	var want, got [2]int64
	for d := 0; d < 2; d++ {
		want[d] = int64(binary.LittleEndian.Uint64(recv[8*d:]))
	}
	for {
		done := true
		for d := 0; d < 2; d++ {
			got[d] = 0
			for col := range in.acc[d] {
				got[d] += in.acc[d][col][par].v.Load()
			}
			if got[d]>>aggCountShift < want[d] {
				done = false
			}
		}
		if done {
			break
		}
		in.poll(tr, g)
	}
	for d := 0; d < 2; d++ {
		wantSum := int64(binary.LittleEndian.Uint64(recv[16+8*d:]))
		if got[d]>>aggCountShift != want[d] || got[d]&(1<<aggCountShift-1) != wantSum {
			r.fail("agg-bsp: superstep %d: rank %d received %d records with sum %d, allreduce says %d with sum %d",
				step, d, got[d]>>aggCountShift, got[d]&(1<<aggCountShift-1), want[d], wantSum)
		}
		if d == g {
			// Each goroutine credits the deliveries of its own rank.
			r.msgs += want[d]
			r.bytes += want[d] * aggRecBytes
		}
	}
	return stop
}

// append appends one record on rank's aggregator, polling goroutine g's
// column on both ranks while the aggregator pushes back.
func (in *aggInst) append(tr *tracer, g, rank, dest int, rec []byte) error {
	for {
		sp := tr.begin(spAppend)
		err := in.ags[rank].Append(in.th[rank][g], dest, rec)
		tr.end(sp)
		tr.appends++
		if !errors.Is(err, lci.ErrAggBusy) {
			return err
		}
		tr.busy++
		in.poll(tr, g)
	}
}

// poll polls goroutine g's column on both ranks.
func (in *aggInst) poll(tr *tracer, g int) {
	for rank := range in.ags {
		sp := tr.begin(spPoll)
		in.ags[rank].Poll(in.th[rank][g])
		tr.end(sp)
	}
}

// allreduce runs rank g's IAllreduce from Start until Test reports it
// done, progressing both ranks meanwhile.
func (in *aggInst) allreduce(tr *tracer, g int, send, recv []byte) error {
	sp := tr.begin(spAllreduce)
	defer tr.end(sp)
	h, err := in.rts[g].IAllreduce(send, recv, lci.Int64, lci.OpSum)
	if err != nil {
		return fmt.Errorf("IAllreduce: %w", err)
	}
	if err := h.Start(); err != nil {
		return err
	}
	for !h.Test() {
		progress(tr, in.rts[0])
		progress(tr, in.rts[1])
	}
	return h.Err()
}
