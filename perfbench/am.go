package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"lci"
)

// am-shared: each worker goroutine posts an 8-byte active message from
// rank 0 to a handler on rank 1, which replies from inside the poller;
// the goroutine progresses both ranks until its reply arrives, so it has
// one round trip outstanding at a time. Both goroutines share each
// rank's device pool through unpinned striping.

const (
	// amDevices keeps the 8 µs per-device inject gap out of the numbers:
	// with 4 devices, rounds that ran fast bounced 16 % of posts off it.
	amDevices   = 8
	amWarmTrips = 3000 // per goroutine
)

type amInst struct {
	world
	pingH, replyH  lci.RComp
	mask           [nThreads]uint64 // payload = op id ^ mask[goroutine]
	seq            [nThreads]uint64 // unit operations started, per goroutine
	corruptEvery   int
	trs            [nThreads]*tracer
	slots          [nThreads]amSlot
	replyBuf       [nThreads][8]byte // written by the ping handler only
	handlerFailure atomic.Int64
	replyParks     atomic.Int64 // replies the library parked on the backlog
}

// amSlot is where the reply handler leaves a goroutine's echoed op id.
type amSlot struct {
	got atomic.Uint64 // echoed op id + 1; 0 = no reply yet
	_   [56]byte      // keeps the two goroutines' slots on separate cache lines
}

func setupAM(cfg runConfig) (instance, error) {
	in := &amInst{world: world{w: lci.NewWorld(2, lci.WithPlatform(lci.SimExpanse()))}}
	if err := in.build(cfg); err != nil {
		in.w.Close()
		return nil, err
	}
	in.corruptEvery = cfg.corruptEvery // the warm-up stays clean
	return in, nil
}

func (in *amInst) build(cfg runConfig) error {
	rts, err := newRanks(in.w, cmp.Or(cfg.devices, amDevices))
	if err != nil {
		return err
	}
	in.rts = rts
	for g := range in.mask {
		in.mask[g] = hash(cfg.seed, 0xa3, uint64(g))
	}
	// Symmetric registration: the same order on both ranks gives both
	// handlers the same handle everywhere.
	for _, rt := range in.rts {
		in.replyH = rt.RegisterHandler(in.onReply)
		in.pingH = rt.RegisterHandler(in.onPing)
	}
	in.trs = offTracers()
	var res [nThreads]threadResult
	runThreads(in.trs, func(g int, tr *tracer) {
		in.loop(g, tr, &res[g], time.Time{}, int(amWarmTrips*cfg.warmScale)+1)
	})
	return warmFailure(res[:], in.handlerFailure.Load())
}

// snapshot adds the handler's parked replies to the world's counters.
func (in *amInst) snapshot() counters {
	c := in.world.snapshot()
	c.replyParks = in.replyParks.Load()
	return c
}

func (in *amInst) run(deadline time.Time, trs [nThreads]*tracer, res [nThreads]*threadResult) (time.Duration, int64) {
	in.trs = trs
	f0 := in.handlerFailure.Load()
	elapsed := runThreads(trs, func(g int, tr *tracer) {
		in.loop(g, tr, res[g], deadline, -1)
	})
	return elapsed, in.handlerFailure.Load() - f0
}

// loop runs round trips until the deadline, or count of them when count
// is not negative.
func (in *amInst) loop(g int, tr *tracer, r *threadResult, deadline time.Time, count int) {
	r0, r1 := in.rts[0], in.rts[1]
	slot := &in.slots[g]
	var buf [8]byte
	for n := 0; count < 0 || n < count; n++ {
		if count < 0 && time.Now().After(deadline) {
			return
		}
		in.seq[g]++
		u := tr.startUnit(opID(in.seq[g], g))
		op := tr.op
		v := op ^ in.mask[g]
		if in.corruptEvery > 0 && in.seq[g]%uint64(in.corruptEvery) == 0 {
			v ^= 1 << 40
		}
		binary.LittleEndian.PutUint64(buf[:], v)
		t0 := time.Now()
		r.attempted++
		ok := true
		for {
			sp := tr.begin(spPostAM)
			st, err := r0.PostAM(1, buf[:], in.pingH, lci.WithTag(g))
			tr.end(sp)
			if err != nil || st.Failed() {
				ok = false
				break
			}
			if !st.IsRetry() {
				break
			}
			progress(tr, r0)
			progress(tr, r1)
		}
		var got uint64
		for ok {
			if got = slot.got.Load(); got != 0 {
				break
			}
			progress(tr, r0)
			progress(tr, r1)
		}
		slot.got.Store(0)
		r.lat.add(int64(time.Since(t0)))
		tr.end(u)
		r.units++
		if !ok {
			r.fail("am-shared: ping %#x: PostAM failed", op)
			continue
		}
		if got != op+1 {
			r.fail("am-shared: ping %#x: reply carried %#x", op, got-1)
			continue
		}
		r.msgs += 2
		r.bytes += 16
	}
}

// onPing runs on rank 1 inside a Progress call: it echoes the payload
// back to rank 0 from the poller, without retry.
func (in *amInst) onPing(st lci.Status) {
	g := st.Tag
	if st.Failed() || len(st.Buffer) != 8 || g < 0 || g >= nThreads {
		in.handlerFail("ping with tag %d, %d bytes, err %v", g, len(st.Buffer), st.Err())
		return
	}
	op := binary.LittleEndian.Uint64(st.Buffer) ^ in.mask[g]
	tr := tracerOf(&in.trs)
	var sp, psp int32
	if tr != nil {
		sp = tr.beginOp(spHandler, op, op&sampledBit != 0)
	}
	// The goroutine has one ping outstanding, so its reply buffer is free
	// until the reply handler has seen this reply.
	buf := in.replyBuf[g][:]
	copy(buf, st.Buffer)
	if tr != nil {
		psp = tr.beginOp(spPostAM, op, false)
	}
	rst, err := in.rts[1].PostAM(0, buf, in.replyH, lci.WithTag(g), lci.WithNoRetry())
	if tr != nil {
		tr.end(psp)
		tr.end(sp)
	}
	if err != nil || rst.Failed() {
		in.handlerFail("reply PostAM: %v %v", err, rst.Err())
		return
	}
	// A no-retry post that could not go out now is parked on the backlog
	// and returns Posted with the reason set.
	if rst.Reason != (lci.Status{}).Reason {
		in.replyParks.Add(1)
	}
}

// handlerFail counts a failure seen inside a handler and reports the
// first one.
func (in *amInst) handlerFail(format string, args ...any) {
	if in.handlerFailure.Add(1) == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: am-shared handler: "+format+"\n", args...)
	}
}

// onReply runs on rank 0 inside a Progress call and hands the echoed op
// id to the goroutine waiting for it.
func (in *amInst) onReply(st lci.Status) {
	g := st.Tag
	if st.Failed() || len(st.Buffer) != 8 || g < 0 || g >= nThreads {
		in.handlerFail("reply with tag %d, %d bytes, err %v", g, len(st.Buffer), st.Err())
		return
	}
	op := binary.LittleEndian.Uint64(st.Buffer) ^ in.mask[g]
	tr := tracerOf(&in.trs)
	var sp int32
	if tr != nil {
		sp = tr.beginOp(spHandler, op, op&sampledBit != 0)
	}
	in.slots[g].got.Store(op + 1)
	if tr != nil {
		tr.end(sp)
	}
}
