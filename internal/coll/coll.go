// Package coll implements LCI collectives as completion graphs: every
// collective is a comp.Graph whose nodes are point-to-point posts
// (PostSend/PostRecv) and local combine closures, and whose edges encode
// the algorithm's partial order (§4.2.6 — the paper recommends exactly
// this composition for nonblocking collectives). Each collective
// therefore has both a blocking form and a nonblocking handle
// (Start/Test/Wait) that the caller progresses like any other LCI
// operation; the graph defers its posts to the owner's polling calls, so
// single-goroutine resources (affinity handles, packet workers) stay on
// the owner's thread even while foreign progress threads signal
// completions.
//
// # Tag-window layout
//
// Collective traffic matches on a dedicated engine, never colliding with
// user tags. Within that engine each collective kind owns a reserved
// window of epochWindow×maxRounds tags starting at tagBase:
//
//	tag = tagBase + kind·(epochWindow·maxRounds) + (epoch mod epochWindow)·maxRounds + round
//
// Epochs recycle modulo epochWindow (128). Collectives do not
// synchronize — a broadcast root can run arbitrarily far ahead of a
// leaf, and an unpolled nonblocking handle can stall at any age — so
// two mechanisms bound the skew below the window: a per-kind age cap (a
// call refuses to build while a call issued resyncEvery = 32 or more
// calls ago is still unfinished — Comm.checkAge; an abandoned handle's
// parked receives would otherwise cross-match a recycled tag), and
// every resyncEvery calls of a kind the builder prepends a
// dissemination-barrier subgraph that the collective's entry nodes
// depend on.
//
// Safety derivation — a tag of call j is reused at call j+128; when any
// rank builds call s = j+128: the age cap says its local calls ≤ s-32
// are finished, so the newest resync-equipped call it has FINISHED
// (merely having built the nearest one is not enough — its embedded
// barrier may not have run) is some f ≥ s-63; that barrier having
// completed proves every rank BUILT call f, and their own age caps then
// prove they finished — and thus matched all receives of — calls
// ≤ f-32 ≥ s-95 > j. Barriers need no resync subgraph: completing a
// barrier call proves every rank entered it, and chaining the age cap
// through two such hops (s → s-32 → s-64 → matched ≤ s-96) retires the
// window's previous use the same way.
//
// Collectives are collective calls: every rank must issue them in the
// same order, and a rank must not call collectives concurrently from
// several threads (serialize externally; the epoch ordering then matches
// calls across ranks regardless of which thread made them).
package coll

import (
	"fmt"
	"runtime"

	"lci/internal/base"
	"lci/internal/comp"
	"lci/internal/core"
	"lci/internal/spin"
)

// Kind enumerates the collective types, each owning a tag window.
type Kind uint8

const (
	KindBarrier Kind = iota
	KindBcast
	KindReduce
	KindAllreduce
	KindAllgather
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindBarrier:
		return "barrier"
	case KindBcast:
		return "broadcast"
	case KindReduce:
		return "reduce"
	case KindAllreduce:
		return "allreduce"
	case KindAllgather:
		return "allgather"
	default:
		return fmt.Sprintf("coll(%d)", uint8(k))
	}
}

const (
	// tagBase is the first reserved collective tag (the engine is
	// dedicated, so this only keeps windows self-describing in traces).
	tagBase = 1 << 20
	// epochWindow bounds each kind's tag space: epochs recycle modulo
	// it. It must exceed 2·resyncEvery + the outstanding-age cap (see
	// the safety derivation in the package comment): the newest resync
	// barrier a rank is guaranteed to have FINISHED (not merely built)
	// when it builds call s is the one embedded in a call as old as
	// s-63, and that barrier only proves remote ranks completed calls up
	// to s-95 — so 128 leaves a 33-call margin while 64 would not.
	epochWindow = 128
	// maxRounds is the per-epoch tag budget: algorithm rounds (ring
	// allgather uses nranks-1 of them; the stitched reduce+broadcast
	// allreduce offsets its broadcast half by bcastRoundBase).
	maxRounds = 128
	// resyncEvery: a dissemination-barrier subgraph is prepended every
	// this many calls of a non-synchronizing kind, and a call refuses to
	// build while one issued this many calls ago is still outstanding
	// (which also caps outstanding calls per kind at this count).
	resyncEvery = epochWindow / 4
	// bcastRoundBase offsets the broadcast rounds of the stitched
	// reduce+broadcast allreduce past its reduce rounds.
	bcastRoundBase = 64
)

func tagFor(kind Kind, epoch, round int) int {
	return tagBase + int(kind)*epochWindow*maxRounds + epoch*maxRounds + round
}

// Progress makes one progress round for the resources selected by o: the
// explicit device if set, else the affinity's pinned device, else the
// whole pool (unpinned collective posts stripe across every device). It
// is the single place the collective progress policy lives.
func Progress(rt *core.Runtime, o core.Options) int {
	if o.Device != nil {
		return o.Device.Progress()
	}
	if o.Affinity != nil {
		return o.Affinity.Progress()
	}
	return rt.ProgressAll()
}

// progressor drives a collective's wait loop: the caller's own resources
// on every round, with two escape hatches on a budget of empty rounds —
// a whole-pool sweep (a peer rank may post its side of the collective
// from a thread pinned to a different pool index, landing traffic on an
// endpoint the local device never sees) and a scheduler yield (so
// straggler ranks on oversubscribed hosts get CPU time). The sweep is
// idle-path only: while local traffic flows, pinned collectives touch
// nothing but their same-domain device.
type progressor struct{ misses int }

func (p *progressor) step(rt *core.Runtime, o core.Options) {
	if Progress(rt, o) > 0 {
		p.misses = 0
		return
	}
	p.misses++
	if p.misses&31 == 0 && (o.Device != nil || o.Affinity != nil) {
		rt.ProgressAll()
	}
	if p.misses&63 == 0 {
		runtime.Gosched()
	}
}

// Comm is one rank's collectives context: the dedicated matching engine,
// per-kind epoch counters and outstanding-call accounting, and the
// reusable scratch that keeps the blocking barrier allocation-free. It
// is not goroutine-safe — collectives on one rank must be serialized.
type Comm struct {
	rt *core.Runtime
	me *core.MatchEngine

	epochs [numKinds]int // calls issued per kind (monotonic; tags use mod epochWindow)
	// outstanding holds each kind's built-but-unfinished call sequence
	// numbers in issue order (so [0] is the oldest). The age of the
	// oldest entry — not just the count — is what the tag-recycling
	// invariant needs: a handle the application stops polling keeps its
	// epoch's receives parked in the engine, and a new call whose epoch
	// collides with it modulo the window would silently cross-match. A
	// kind's resync-barrier epochs are tracked here too (under
	// KindBarrier), tied to the parent handle's lifetime.
	outstanding [numKinds][]int
	// live holds the unfinished nonblocking handles, so a later
	// collective's wait loop can keep draining their deferred posts
	// (drainLive) — without it, a handle mid-graph while its owner waits
	// inside a blocking collective would stall, deadlocking overlap
	// patterns the outstanding machinery expressly permits.
	live []*Handle

	// Blocking-barrier scratch: the dissemination rounds reuse these two
	// counters (Reset between rounds) and one-byte buffers instead of
	// allocating per round; the barrier's full synchronization guarantees
	// they are quiescent when reused.
	bsend, brecv comp.Counter
	bpay, brbuf  [1]byte

	// Failure-domain poisoning (checkDead): deadGen caches the runtime's
	// fault generation; poisoned latches once any rank dies. A comm spans
	// every rank, so one death dooms every collective on it.
	deadGen  uint64
	poisoned bool
}

// New builds the collectives context for rt, allocating its dedicated
// matching engine. Call it at the same point of runtime construction on
// every rank so the engine's wire id matches.
func New(rt *core.Runtime) *Comm {
	return &Comm{rt: rt, me: rt.NewMatchingEngine(64)}
}

// Runtime returns the underlying runtime.
func (c *Comm) Runtime() *core.Runtime { return c.rt }

// prep normalizes user options for collective traffic: everything rides
// the dedicated engine under default matching, and point-to-point-only
// options that would corrupt the wire pattern (remote buffers/completions,
// explicit remote devices) are cleared. Device, Affinity and Worker are
// honored — they are the placement levers.
func (c *Comm) prep(o *core.Options) {
	o.Engine = c.me
	o.Policy = base.MatchRankTag
	o.Remote = nil
	o.RComp = base.InvalidRComp
	o.RemoteDevice = 0
	o.RemoteDeviceSet = false
	o.DisallowRetry = false
	o.Ctx = nil
}

// allocEpoch hands out the next call sequence number for kind.
func (c *Comm) allocEpoch(kind Kind) int {
	e := c.epochs[kind]
	c.epochs[kind]++
	return e
}

// checkAge enforces the tag-recycling invariant before a kind's next
// call is built: the oldest outstanding call must be younger than
// resyncEvery calls (see the safety derivation in the package comment —
// the age bound covers local staleness, and the resync barriers carry
// it across ranks). The bound also implies at most resyncEvery calls of
// a kind can be outstanding at once.
func (c *Comm) checkAge(kind Kind) error {
	out := c.outstanding[kind]
	if len(out) > 0 && c.epochs[kind]-out[0] >= resyncEvery {
		return fmt.Errorf("%w: %s collective issued %d calls ago is still unfinished; Wait/Test it before tags recycle (max age %d)",
			core.ErrInvalidArgument, kind, c.epochs[kind]-out[0], resyncEvery-1)
	}
	return nil
}

// retire removes a finished call's sequence number from the kind's
// outstanding list (issue-ordered, ≤ resyncEvery entries).
func (c *Comm) retire(kind Kind, seq int) {
	out := c.outstanding[kind]
	for i, s := range out {
		if s == seq {
			c.outstanding[kind] = append(out[:i], out[i+1:]...)
			return
		}
	}
}

// drainLive advances the deferred posts of every live handle that shares
// the caller's thread-bound resources. Handles whose posts ride the same
// affinity and worker as the current call belong to the same thread (the
// handles and the per-rank collective serialization both bind to one
// goroutine), so posting on their behalf from this wait loop cannot
// touch another thread's packet worker — which is the one hazard the
// deferred-op mode exists to prevent. Handles pinned to other resources
// stay untouched: their owner must keep polling them.
func (c *Comm) drainLive(o core.Options, self *Handle) {
	for _, h := range c.live {
		if h == self || !h.started {
			continue
		}
		if h.o.Affinity == o.Affinity && h.o.Worker == o.Worker {
			h.g.Drain()
		}
	}
}

// checkDead polls the fault domain from a collective wait loop. The
// dead-rank sweep in core only reaches receives posted against the dead
// rank itself; a collective can also strand a receive from a rank that is
// still alive — the peer's graph aborted its send after its own
// dead-peer failure, so the message will never come. Since the comm
// spans every rank, any death makes every in-flight (and future)
// collective include a dead member, so on a generation change the comm
// is poisoned and every receive parked in its dedicated engine is
// error-completed with ErrPeerDead; the graphs' abort cascades then
// finish them and Wait returns a typed error instead of spinning. While
// poisoned the sweep repeats on every poll, because deferred posts
// drained after the first sweep park new — equally doomed — receives.
// The healthy-path cost is one atomic load and a compare.
//
// In-flight sends need no cancellation: eager sends complete at TxDone
// regardless of the receiver, and a rendezvous send whose matching
// receive was cancelled on the peer is bounded by the retransmit layer's
// timeout (arm Config.RendezvousTimeoutEpochs when running collectives
// with rendezvous-sized payloads under a fault injector).
func (c *Comm) checkDead() {
	gen := c.rt.FaultGen()
	if gen != c.deadGen {
		c.deadGen = gen
		c.poisoned = true // generations only grow; any change means a death
	}
	if c.poisoned {
		c.rt.CancelRecvs(c.me, core.ErrPeerDead)
	}
}

// unlive removes a finished handle from the live list.
func (c *Comm) unlive(h *Handle) {
	for i, v := range c.live {
		if v == h {
			c.live = append(c.live[:i], c.live[i+1:]...)
			return
		}
	}
}

// Barrier blocks until every rank has entered the barrier, progressing
// the resources selected by o while waiting. This is the allocation-free
// fast path: the dissemination rounds reuse the Comm's pooled counters
// and buffers instead of allocating two counters per round per call.
func (c *Comm) Barrier(o core.Options) error {
	if _, err := pickBarrier(o.CollAlgorithm); err != nil {
		return err
	}
	// A stale nonblocking barrier (an unpolled IBarrier or an abandoned
	// handle holding a resync subgraph) still owns its epoch's parked
	// receives; refuse to run into its recycled tags.
	if err := c.checkAge(KindBarrier); err != nil {
		return err
	}
	n := c.rt.NumRanks()
	if n == 1 {
		return nil
	}
	c.prep(&o)
	// The blocking barrier completes before returning (and collectives
	// are serialized per rank), so its epoch is never outstanding.
	epoch := c.allocEpoch(KindBarrier) % epochWindow
	me := c.rt.Rank()
	var pr progressor
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		sendTo := (me + dist) % n
		recvFrom := (me - dist + n) % n
		tag := tagFor(KindBarrier, epoch, k)
		c.brecv.Reset()
		c.bsend.Reset()
		rst, err := c.rt.PostRecv(recvFrom, c.brbuf[:], tag, &c.brecv, o)
		if err != nil {
			return err
		}
		var sst base.Status
		for {
			sst, err = c.rt.PostSend(sendTo, c.bpay[:], tag, &c.bsend, o)
			if err != nil {
				return err
			}
			if !sst.IsRetry() {
				break
			}
			pr.step(c.rt, o)
			c.drainLive(o, nil)
			c.checkDead()
		}
		// A Done receive (the peer's message had already arrived) never
		// signals the counter; only wait when the receive was parked.
		// checkDead unsticks a receive stranded by a peer's failure: the
		// cancellation signals brecv with the error, ending the loop.
		for rst.IsPosted() && c.brecv.Load() < 1 {
			pr.step(c.rt, o)
			c.drainLive(o, nil)
			c.checkDead()
		}
		// Inject-sized sends complete at post time and never signal; a
		// Posted send must quiesce before its counter is reused.
		for sst.IsPosted() && c.bsend.Load() < 1 {
			pr.step(c.rt, o)
			c.drainLive(o, nil)
			c.checkDead()
		}
		// A counter may have been signaled with an error (the peer died
		// mid-round and the parked receive was swept): the barrier cannot
		// complete, report instead of spinning into the next round.
		if err := c.brecv.Err(); err != nil {
			return err
		}
		if err := c.bsend.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Handle is a nonblocking collective: a started completion graph the
// caller polls. Test drains deferred posts and reports completion; Wait
// blocks, progressing the collective's resources. The handle belongs to
// the thread that issued the collective.
type Handle struct {
	c        *Comm
	kind     Kind
	g        *comp.Graph
	o        core.Options
	seq      int // call sequence number (retired from outstanding on finish)
	bseq     int // embedded resync barrier's sequence number (-1 if none)
	started  bool
	finished bool

	errMu spin.Mutex
	err   error
}

// Kind returns the collective's kind.
func (h *Handle) Kind() Kind { return h.kind }

// fail records the first posting error; the failing node completes so the
// graph can drain and Wait can surface the error.
func (h *Handle) fail(err error) {
	h.errMu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.errMu.Unlock()
}

// Err returns the first error any of the collective's operations hit:
// post-time failures recorded by the op nodes, or completion-time
// failures (a peer died mid-collective, a rendezvous timed out) latched
// by the graph's abort cascade. A failed collective still completes —
// Wait returns, never hangs — with this error.
func (h *Handle) Err() error {
	h.errMu.Lock()
	err := h.err
	h.errMu.Unlock()
	if err != nil {
		return err
	}
	return h.g.Err()
}

// Start launches the collective: the graph's root operations post from
// the calling thread. It may be called once; Wait starts automatically.
func (h *Handle) Start() error {
	if h.started {
		return fmt.Errorf("%w: collective already started", core.ErrInvalidArgument)
	}
	h.started = true
	h.g.Start()
	return nil
}

// Test drains deferred posts and reports whether the collective has
// completed. An unstarted collective reports false. Completed is not
// the same as succeeded: a node that hit a posting error finishes the
// graph so it can drain, with the error stored — after Test first
// returns true, check Err (Wait does this for you).
func (h *Handle) Test() bool {
	if !h.started {
		return false
	}
	if h.finished {
		return true
	}
	h.c.checkDead()
	if !h.g.Test() {
		return false
	}
	h.finished = true
	h.c.retire(h.kind, h.seq)
	if h.bseq >= 0 {
		h.c.retire(KindBarrier, h.bseq)
	}
	h.c.unlive(h)
	return true
}

// Wait blocks until the collective completes, progressing the resources
// it was posted with (Start is implied if it has not been called).
func (h *Handle) Wait() error {
	if !h.started {
		if err := h.Start(); err != nil {
			return err
		}
	}
	var pr progressor
	for !h.Test() {
		pr.step(h.c.rt, h.o)
		h.c.drainLive(h.o, h)
	}
	return h.Err()
}

// newBuilder allocates the epoch and graph for one collective call,
// prepending the resync-barrier subgraph when the kind's tag window is
// about to be reentered (see the package comment for the invariant). It
// refuses to build while a too-old call of the kind (or of the barrier
// kind, whose tags every resync subgraph shares) is still outstanding.
func (c *Comm) newBuilder(kind Kind, o core.Options) (*builder, error) {
	if err := c.checkAge(kind); err != nil {
		return nil, err
	}
	if kind != KindBarrier {
		if err := c.checkAge(KindBarrier); err != nil {
			return nil, err
		}
	}
	c.prep(&o)
	g := comp.NewGraph()
	g.SetDeferOps()
	h := &Handle{c: c, kind: kind, o: o, g: g, bseq: -1}
	seq := c.allocEpoch(kind)
	h.seq = seq
	b := &builder{h: h, epoch: seq % epochWindow}
	if kind != KindBarrier && seq > 0 && seq%resyncEvery == 0 {
		h.bseq = c.allocEpoch(KindBarrier)
		c.outstanding[KindBarrier] = append(c.outstanding[KindBarrier], h.bseq)
		b.entry = b.barrierRounds(h.bseq%epochWindow, nil)
	}
	c.outstanding[kind] = append(c.outstanding[kind], seq)
	c.live = append(c.live, h)
	return b, nil
}

// IBarrier returns a nonblocking barrier.
func (c *Comm) IBarrier(o core.Options) (*Handle, error) {
	if _, err := pickBarrier(o.CollAlgorithm); err != nil {
		return nil, err
	}
	b, err := c.newBuilder(KindBarrier, o)
	if err != nil {
		return nil, err
	}
	b.barrierRounds(b.epoch, b.entry)
	return b.h, nil
}

// IBcast returns a nonblocking broadcast of buf from root.
func (c *Comm) IBcast(buf []byte, root int, o core.Options) (*Handle, error) {
	n := c.rt.NumRanks()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: broadcast root %d out of range [0,%d)", core.ErrInvalidArgument, root, n)
	}
	alg, err := pickBcast(o.CollAlgorithm, n, len(buf))
	if err != nil {
		return nil, err
	}
	b, err := c.newBuilder(KindBcast, o)
	if err != nil {
		return nil, err
	}
	b.bcast(buf, root, alg, 0, b.entry)
	return b.h, nil
}

// Broadcast is the blocking form of IBcast.
func (c *Comm) Broadcast(buf []byte, root int, o core.Options) error {
	h, err := c.IBcast(buf, root, o)
	if err != nil {
		return err
	}
	return h.Wait()
}

// IReduce returns a nonblocking reduction of send into recv at root.
// recv must be len(send) bytes on the root; on other ranks it may be nil
// (an internal scratch accumulator is used) or a same-length scratch.
func (c *Comm) IReduce(send, recv []byte, dt Datatype, op Op, root int, o core.Options) (*Handle, error) {
	n := c.rt.NumRanks()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: reduce root %d out of range [0,%d)", core.ErrInvalidArgument, root, n)
	}
	acc, cmb, err := c.reduceArgs(send, recv, dt, op, c.rt.Rank() == root)
	if err != nil {
		return nil, err
	}
	alg, err := pickReduce(o.CollAlgorithm, n, len(send))
	if err != nil {
		return nil, err
	}
	b, err := c.newBuilder(KindReduce, o)
	if err != nil {
		return nil, err
	}
	b.reduce(send, acc, cmb, root, alg, 0, b.entry)
	return b.h, nil
}

// Reduce is the blocking form of IReduce.
func (c *Comm) Reduce(send, recv []byte, dt Datatype, op Op, root int, o core.Options) error {
	h, err := c.IReduce(send, recv, dt, op, root, o)
	if err != nil {
		return err
	}
	return h.Wait()
}

// IAllreduce returns a nonblocking all-reduce of send into recv (every
// rank gets the reduction). len(recv) must equal len(send).
func (c *Comm) IAllreduce(send, recv []byte, dt Datatype, op Op, o core.Options) (*Handle, error) {
	acc, cmb, err := c.reduceArgs(send, recv, dt, op, true)
	if err != nil {
		return nil, err
	}
	n := c.rt.NumRanks()
	alg, err := pickAllreduce(o.CollAlgorithm, n, len(send))
	if err != nil {
		return nil, err
	}
	b, err := c.newBuilder(KindAllreduce, o)
	if err != nil {
		return nil, err
	}
	b.allreduce(send, acc, cmb, alg, b.entry)
	return b.h, nil
}

// Allreduce is the blocking form of IAllreduce.
func (c *Comm) Allreduce(send, recv []byte, dt Datatype, op Op, o core.Options) error {
	h, err := c.IAllreduce(send, recv, dt, op, o)
	if err != nil {
		return err
	}
	return h.Wait()
}

// IAllgather returns a nonblocking all-gather: rank i's send block lands
// at recv[i*len(send):(i+1)*len(send)] on every rank.
func (c *Comm) IAllgather(send, recv []byte, o core.Options) (*Handle, error) {
	n := c.rt.NumRanks()
	if len(send) == 0 || len(recv) != n*len(send) {
		return nil, fmt.Errorf("%w: allgather needs len(recv) == nranks*len(send), got %d != %d*%d",
			core.ErrInvalidArgument, len(recv), n, len(send))
	}
	alg, err := pickAllgather(o.CollAlgorithm, n, len(send))
	if err != nil {
		return nil, err
	}
	b, err := c.newBuilder(KindAllgather, o)
	if err != nil {
		return nil, err
	}
	b.allgather(send, recv, alg, b.entry)
	return b.h, nil
}

// Allgather is the blocking form of IAllgather.
func (c *Comm) Allgather(send, recv []byte, o core.Options) error {
	h, err := c.IAllgather(send, recv, o)
	if err != nil {
		return err
	}
	return h.Wait()
}

// reduceArgs validates reduction buffers and resolves the accumulator
// (recv, or internal scratch on non-root ranks that passed nil) and the
// combine function.
func (c *Comm) reduceArgs(send, recv []byte, dt Datatype, op Op, needRecv bool) ([]byte, func(dst, src []byte), error) {
	if len(send) == 0 {
		return nil, nil, fmt.Errorf("%w: empty reduction buffer", core.ErrInvalidArgument)
	}
	acc := recv
	if acc == nil && !needRecv {
		acc = make([]byte, len(send))
	}
	if len(acc) != len(send) {
		return nil, nil, fmt.Errorf("%w: reduction needs len(recv) == len(send), got %d != %d",
			core.ErrInvalidArgument, len(acc), len(send))
	}
	cmb, err := op.combiner(dt, len(send))
	if err != nil {
		return nil, nil, err
	}
	return acc, cmb, nil
}
