package main

import (
	"bytes"
	"time"

	"lci"
)

// sendrecv-mix: in each step every worker goroutine posts, on rank 0 and
// then on rank 1, 8 tagged receives and then 8 sends towards the other
// rank: 5 × 8 B (inject), 2 × 4 KiB (eager) and 1 × 256 KiB
// (rendezvous), in an order drawn from the seed. Rank 0's sends arrive
// before rank 1 has posted its receives, so half the traffic takes the
// unexpected-message path. Each rank has one completion queue shared by
// both goroutines; a goroutine pops both queues and hands a completion
// that belongs to the other goroutine over by its context, until its
// own 32 operations are done.

const (
	srDevices   = 4
	srSlots     = 8
	srWarmSteps = 40 // per goroutine
	srArena     = 2 << 20
)

var srSizes = [srSlots]int{8, 8, 8, 8, 8, 4 << 10, 4 << 10, 256 << 10}

type srInst struct {
	world
	cqs          [2]*lci.CQ
	arena        []byte // seeded payload bytes; messages are windows of it
	seed         uint64
	corruptEvery int
	step         [nThreads]uint64
	// mail hands a completion to the goroutine that owns it. It holds at
	// most one step's completions of its owner: 2 ranks × 16 operations.
	mail [nThreads]chan lci.Status
	// rbuf[g][r][slot] receives slot's message on rank r for goroutine g.
	rbuf [nThreads][2][srSlots][]byte
	// scratch holds a goroutine's deliberately corrupted payload.
	scratch [nThreads][]byte
}

func setupSendRecv(cfg runConfig) (instance, error) {
	in := &srInst{
		world: world{w: lci.NewWorld(2, lci.WithPlatform(lci.SimDelta()))},
		seed:  cfg.seed,
		arena: make([]byte, srArena),
	}
	if err := in.build(cfg); err != nil {
		in.w.Close()
		return nil, err
	}
	in.corruptEvery = cfg.corruptEvery // the warm-up stays clean
	return in, nil
}

func (in *srInst) build(cfg runConfig) error {
	rts, err := newRanks(in.w, srDevices)
	if err != nil {
		return err
	}
	in.rts = rts
	fillSeeded(in.arena, hash(in.seed, 0x5a))
	for r := range in.cqs {
		in.cqs[r] = lci.NewCQ()
	}
	for g := range in.mail {
		in.mail[g] = make(chan lci.Status, 2*2*srSlots)
		in.scratch[g] = make([]byte, srSizes[srSlots-1])
		for r := range in.rbuf[g] {
			for s := range in.rbuf[g][r] {
				in.rbuf[g][r][s] = make([]byte, srSizes[srSlots-1])
			}
		}
	}
	var res [nThreads]threadResult
	runThreads(offTracers(), func(g int, tr *tracer) {
		in.loop(g, tr, &res[g], time.Time{}, int(srWarmSteps*cfg.warmScale)+1)
	})
	return warmFailure(res[:], 0)
}

func (in *srInst) run(deadline time.Time, trs [nThreads]*tracer, res [nThreads]*threadResult) (time.Duration, int64) {
	return runThreads(trs, func(g int, tr *tracer) {
		in.loop(g, tr, res[g], deadline, -1)
	}), 0
}

// srCtx is the context a post carries back in its completion: owning
// goroutine, rank, direction and slot. Values stay below 256, which Go
// boxes into an interface without allocating.
func srCtx(g, r, recv, slot int) int { return g<<5 | r<<4 | recv<<3 | slot }

func srTag(g, slot int) int { return g*srSlots + slot }

// srStep is one goroutine's step plan: the slot sizes in seeded order and
// where in the arena each (sending rank, slot) message comes from.
type srStep struct {
	size [srSlots]int
	off  [2][srSlots]int
}

func (in *srInst) plan(g int, step uint64) srStep {
	var p srStep
	p.size = srSizes
	for i := srSlots - 1; i > 0; i-- {
		j := int(hash(in.seed, 0x0d, uint64(g), step, uint64(i)) % uint64(i+1))
		p.size[i], p.size[j] = p.size[j], p.size[i]
	}
	for r := range p.off {
		for s, n := range p.size {
			p.off[r][s] = int(hash(in.seed, 0x0f, uint64(g), step, uint64(r), uint64(s)) % uint64(srArena-n))
		}
	}
	return p
}

// loop runs steps until the deadline, or count of them when count is not
// negative.
func (in *srInst) loop(g int, tr *tracer, r *threadResult, deadline time.Time, count int) {
	for n := 0; count < 0 || n < count; n++ {
		if count < 0 && time.Now().After(deadline) {
			return
		}
		in.step[g]++
		step := in.step[g]
		u := tr.startUnit(opID(step, g))
		t0 := time.Now()
		in.doStep(g, tr, r, step)
		r.lat.add(int64(time.Since(t0)))
		tr.end(u)
		r.units++
	}
}

func (in *srInst) doStep(g int, tr *tracer, r *threadResult, step uint64) {
	p := in.plan(g, step)
	corrupt := in.corruptEvery > 0 && step%uint64(in.corruptEvery) == 0
	pending := 0
	for rank := 0; rank < 2; rank++ {
		rt, peer := in.rts[rank], 1-rank
		for s, n := range p.size {
			rb := in.rbuf[g][rank][s][:n]
			want := in.arena[p.off[peer][s]:][:n]
			// Poison both ends so a receive that delivers nothing fails.
			rb[0], rb[n-1] = ^want[0], ^want[n-1]
			r.attempted++
			st, ok := in.post(tr, spPostRecv, func() (lci.Status, error) {
				return rt.PostRecv(peer, rb, srTag(g, s), in.cqs[rank], lci.WithContext(srCtx(g, rank, 1, s)))
			})
			switch {
			case !ok:
				r.fail("sendrecv-mix: step %d: PostRecv failed: %v", step, st.Err())
			case st.IsDone():
				in.checkRecv(r, st, p, g, rank, s)
			default:
				pending++
			}
		}
		for s, n := range p.size {
			buf := in.arena[p.off[rank][s]:][:n]
			if corrupt && rank == 0 && s == 0 {
				buf = in.scratch[g][:n]
				copy(buf, in.arena[p.off[rank][s]:])
				buf[n/2] ^= 0x40
			}
			st, ok := in.post(tr, spPostSend, func() (lci.Status, error) {
				return rt.PostSend(peer, buf, srTag(g, s), in.cqs[rank], lci.WithContext(srCtx(g, rank, 0, s)))
			})
			switch {
			case !ok:
				r.fail("sendrecv-mix: step %d: PostSend failed: %v", step, st.Err())
			case !st.IsDone():
				pending++
			}
		}
	}
	for pending > 0 {
		popped := false
		for rank := range in.cqs {
			sp := tr.begin(spCQPop)
			st, ok := in.cqs[rank].Pop()
			tr.end(sp)
			tr.popCalls++
			if !ok {
				continue
			}
			tr.popHits++
			popped = true
			if owner := st.Ctx.(int) >> 5; owner != g {
				in.mail[owner] <- st
				continue
			}
			pending--
			in.complete(r, st, p, g)
		}
		for drained := false; !drained; {
			select {
			case st := <-in.mail[g]:
				pending--
				in.complete(r, st, p, g)
			default:
				drained = true
			}
		}
		if !popped && pending > 0 {
			progress(tr, in.rts[0])
			progress(tr, in.rts[1])
		}
	}
}

// post runs a posting call until it is not refused with Retry,
// progressing both ranks between attempts; ok is false when the post
// failed.
func (in *srInst) post(tr *tracer, name spanName, call func() (lci.Status, error)) (st lci.Status, ok bool) {
	for {
		sp := tr.begin(name)
		st, err := call()
		tr.end(sp)
		if err != nil || st.Failed() {
			return st, false
		}
		if !st.IsRetry() {
			return st, true
		}
		progress(tr, in.rts[0])
		progress(tr, in.rts[1])
	}
}

// complete accounts one completion popped from a queue.
func (in *srInst) complete(r *threadResult, st lci.Status, p srStep, g int) {
	c := st.Ctx.(int)
	rank, recv, s := c>>4&1, c>>3&1, c&7
	if st.Failed() {
		r.fail("sendrecv-mix: completion with error: %v", st.Err())
		return
	}
	if recv == 1 {
		in.checkRecv(r, st, p, g, rank, s)
	}
}

// checkRecv compares a delivered message byte for byte with what the
// sender sent.
func (in *srInst) checkRecv(r *threadResult, st lci.Status, p srStep, g, rank, s int) {
	n := p.size[s]
	want := in.arena[p.off[1-rank][s]:][:n]
	if st.Failed() || st.Size != n || !bytes.Equal(in.rbuf[g][rank][s][:n], want) {
		r.fail("sendrecv-mix: rank %d slot %d: %d bytes delivered, want %d bytes equal to the sent payload (err %v)",
			rank, s, st.Size, n, st.Err())
		return
	}
	r.msgs++
	r.bytes += int64(n)
}

func (in *srInst) snapshot() counters { return readCounters(in.w, in.rts, in.cqs[:]...) }
