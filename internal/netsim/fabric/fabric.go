// Package fabric is the wire-level substrate of the network simulator. It
// stands in for the physical interconnect plus the DMA engines of the NICs
// (the paper evaluates on HDR InfiniBand and Slingshot-11; neither is
// available here, see DESIGN.md §2).
//
// A Fabric connects the endpoints of NumRanks simulated processes. Each
// rank owns one or more endpoints — one per LCI device / libfabric
// endpoint / MPICH VCI — so replicating devices replicates the wire-level
// receive path exactly as it does on real hardware. Data movement is
// synchronous memcpy performed by the calling goroutine: the "wire" of the
// simulation is the host memory system, which preserves the per-byte cost
// structure that shapes the paper's bandwidth results (eager double-copy
// vs zero-copy rendezvous). Per-operation CPU costs and lock granularity
// are modeled one layer up, in the provider simulation (internal/netsim/nic).
//
// Flow control mirrors InfiniBand reliable-connection semantics closely
// enough for the evaluation:
//
//   - A send consumes one pre-posted receive slot at the target endpoint.
//     If none is available the message is buffered in a bounded in-order
//     pending queue (the hardware analogue is RNR-NAK + retransmit, which
//     preserves ordering); when that queue is also full, Send reports
//     failure and the sender must retry (backpressure).
//   - RMA writes and reads move bytes immediately and never consume recv
//     slots; a write-with-immediate additionally enqueues a completion
//     event at a target endpoint (always accepted, like a CQE).
//
// Memory registrations are per rank: any endpoint of a rank can service
// RMA traffic for the rank's registered regions, as with a protection
// domain shared across queue pairs.
package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"lci/internal/fault"
	"lci/internal/mpmc"
	"lci/internal/spin"
	"lci/internal/topo"
)

// ErrNoSlots reports that the destination endpoint is out of both receive
// slots and pending-queue space; the sender must retry later. Providers
// surface it as transmit-queue backpressure (their ErrTxFull).
var ErrNoSlots = errors.New("fabric: destination out of receive slots and pending space")

// CompKind classifies simulated completion events.
type CompKind uint8

const (
	// TxDone: a locally posted send/write completed (buffer reusable).
	TxDone CompKind = iota
	// RxSend: an incoming eager message landed in a posted recv slot.
	RxSend
	// RxWriteImm: an incoming RMA write-with-immediate signaled us.
	RxWriteImm
	// ReadDone: a locally posted RMA read completed.
	ReadDone
)

func (k CompKind) String() string {
	switch k {
	case TxDone:
		return "tx-done"
	case RxSend:
		return "rx-send"
	case RxWriteImm:
		return "rx-write-imm"
	case ReadDone:
		return "read-done"
	default:
		return fmt.Sprintf("comp(%d)", uint8(k))
	}
}

// Completion is a simulated completion-queue entry.
type Completion struct {
	Kind CompKind
	Ctx  any    // posting context (TxDone/ReadDone) or recv-slot context (RxSend)
	Src  int    // source rank (RxSend/RxWriteImm)
	Meta uint32 // sender-supplied metadata (RxSend)
	Imm  uint64 // immediate data (RxWriteImm)
	Len  int    // payload length in bytes (RxSend/RxWriteImm)
}

// Config sizes a fabric.
type Config struct {
	// NumRanks is the number of simulated processes.
	NumRanks int
	// PendingCap bounds the per-endpoint RNR pending queue (default 1024).
	PendingCap int
	// Topo is the host topology every simulated node shares (NUMA domains,
	// core→domain map, inter-domain distances). Endpoints bind to domains
	// of it and the provider simulations consult it to charge cross-domain
	// access penalties. Nil selects the inert single-domain topology.
	Topo *topo.Topology
}

type recvSlot struct {
	buf []byte
	ctx any
}

type pendingMsg struct {
	src  int
	meta uint32
	data []byte // private copy, fabric-owned
}

type memRegion struct {
	buf []byte
}

// Endpoint is one simulated NIC receive context. A rank typically owns
// one endpoint per LCI device. The hot queues are embedded by value and
// padded so endpoints never false-share cachelines.
type Endpoint struct {
	rank   int
	idx    int
	domain int // NUMA domain the endpoint's resources live in (BindDomain)

	_       spin.Pad
	rxMu    spin.Mutex
	slots   mpmc.Deque[recvSlot]
	ready   mpmc.Deque[Completion]
	pending mpmc.Deque[pendingMsg]
	nReady  atomic.Int32 // lock-free emptiness check for pollers
	closed  bool         // under rxMu; see Close
	_       spin.Pad

	// statistics (atomic; read by tests and the bench harness)
	statRNR     atomic.Int64
	statRejects atomic.Int64
	statMsgs    atomic.Int64
	statBytes   atomic.Int64
	statCross   atomic.Int64 // ops driven from a remote NUMA domain
}

// Rank returns the owning rank.
func (e *Endpoint) Rank() int { return e.rank }

// Index returns the endpoint's index within its rank.
func (e *Endpoint) Index() int { return e.idx }

// BindDomain models the endpoint's backing resources (CQE ring, receive
// slots, doorbell page) as allocated in NUMA domain dom. It must be
// called before traffic flows (device construction time); endpoints start
// unbound (topo.UnknownDomain), which disables every penalty.
func (e *Endpoint) BindDomain(dom int) { e.domain = dom }

// Domain reports the endpoint's bound NUMA domain (topo.UnknownDomain
// when unbound).
func (e *Endpoint) Domain() int { return e.domain }

// NoteCrossOp counts one operation driven from a remote NUMA domain
// (charged by the provider simulations; surfaced via Stats so placement
// gates can assert the penalty actually fired).
func (e *Endpoint) NoteCrossOp() { e.statCross.Add(1) }

type rankState struct {
	eps      *mpmc.Array[*Endpoint]
	memMu    spin.Mutex
	regions  map[uint64]memRegion
	rmaBytes atomic.Int64

	// Establishment bookkeeping: the set of peer ranks this rank's
	// providers have lazily connected to (ibv QPs, ofi AV entries).
	// Written once per (rank, peer) on the providers' connect slow path,
	// so a plain map under a mutex costs nothing on the data path.
	peerMu spin.Mutex
	peers  map[int]struct{}
}

// Fabric connects the endpoints of one simulated cluster. Rank state is
// allocated lazily, on the first endpoint/registration/traffic touching a
// rank, so a mostly-idle large world costs memory proportional to the
// ranks actually participating — only the pointer-slot index is O(ranks).
type Fabric struct {
	cfg     Config
	ranks   []atomic.Pointer[rankState]
	nActive atomic.Int64
	nextKey atomic.Uint64

	// inj is the optional fault injector. The nil fast path is one atomic
	// pointer load per Send/Write/Read — the chaos gate holds the
	// injector-absent rate within 5% of the pre-fault fabric.
	inj atomic.Pointer[fault.Injector]
}

// SetInjector installs (nil removes) the fabric's fault injector. Install
// before traffic starts; KillRank/DownDevice on an installed injector are
// safe mid-run.
func (f *Fabric) SetInjector(inj *fault.Injector) { f.inj.Store(inj) }

// Injector returns the installed fault injector (nil when none).
func (f *Fabric) Injector() *fault.Injector { return f.inj.Load() }

// New creates a fabric for cfg.NumRanks ranks with no endpoints and no
// per-rank state yet; rank state materializes on first use.
func New(cfg Config) *Fabric {
	if cfg.NumRanks < 1 {
		panic("fabric: NumRanks must be >= 1")
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = 1024
	}
	return &Fabric{cfg: cfg, ranks: make([]atomic.Pointer[rankState], cfg.NumRanks)}
}

// NumRanks returns the number of ranks.
func (f *Fabric) NumRanks() int { return len(f.ranks) }

// Topology returns the host topology the fabric's nodes share (never nil;
// the inert single-domain topology when none was configured).
func (f *Fabric) Topology() *topo.Topology {
	if f.cfg.Topo == nil {
		return topo.None()
	}
	return f.cfg.Topo
}

// rank returns r's state, allocating it on first touch (CAS race: the
// first caller wins, losers adopt the winner's state).
func (f *Fabric) rank(r int) *rankState {
	if rs := f.peek(r); rs != nil {
		return rs
	}
	rs := &rankState{
		eps:     mpmc.NewArray[*Endpoint](4),
		regions: make(map[uint64]memRegion),
	}
	if f.ranks[r].CompareAndSwap(nil, rs) {
		f.nActive.Add(1)
		return rs
	}
	return f.ranks[r].Load()
}

// peek returns r's state without allocating; nil when the rank has never
// been touched. Stats accessors use it so observing a large world does not
// itself materialize the world.
func (f *Fabric) peek(r int) *rankState {
	if r < 0 || r >= len(f.ranks) {
		panic(fmt.Sprintf("fabric: rank %d out of range [0,%d)", r, len(f.ranks)))
	}
	return f.ranks[r].Load()
}

// ActiveRanks reports how many ranks have materialized state (endpoints,
// registrations, or inbound traffic).
func (f *Fabric) ActiveRanks() int { return int(f.nActive.Load()) }

// NoteEstablish records that src's provider established connection state
// (a QP, an address-vector entry) toward dst. Providers call it once per
// (device, peer) on their lazy-connect slow path; the fabric aggregates to
// distinct peers per rank.
func (f *Fabric) NoteEstablish(src, dst int) {
	rs := f.rank(src)
	rs.peerMu.Lock()
	if rs.peers == nil {
		rs.peers = make(map[int]struct{})
	}
	rs.peers[dst] = struct{}{}
	rs.peerMu.Unlock()
}

// ConnectedPeers reports how many distinct peer ranks rank's providers
// have established connection state toward — the sparsity bound the
// rank-scaling gate asserts on (contacted peers, not NumRanks).
func (f *Fabric) ConnectedPeers(rank int) int {
	rs := f.peek(rank)
	if rs == nil {
		return 0
	}
	rs.peerMu.Lock()
	n := len(rs.peers)
	rs.peerMu.Unlock()
	return n
}

// PeerRanks returns the distinct peer ranks rank has established
// connection state toward, in ascending order (diagnostics and tests).
func (f *Fabric) PeerRanks(rank int) []int {
	rs := f.peek(rank)
	if rs == nil {
		return nil
	}
	rs.peerMu.Lock()
	out := make([]int, 0, len(rs.peers))
	for p := range rs.peers {
		out = append(out, p)
	}
	rs.peerMu.Unlock()
	sort.Ints(out)
	return out
}

// NewEndpoint creates and registers a new endpoint for rank.
func (f *Fabric) NewEndpoint(rank int) *Endpoint {
	rs := f.rank(rank)
	e := &Endpoint{rank: rank, domain: topo.UnknownDomain}
	e.slots.Init(64)
	e.ready.Init(64)
	e.pending.Init(16)
	e.idx = rs.eps.Append(e)
	return e
}

// NumEndpoints reports how many endpoints rank has registered.
func (f *Fabric) NumEndpoints(rank int) int {
	rs := f.peek(rank)
	if rs == nil {
		return 0
	}
	return rs.eps.Len()
}

// Endpoint returns rank's idx-th endpoint (diagnostics; panics when out of
// range, matching slice semantics).
func (f *Fabric) Endpoint(rank, idx int) *Endpoint {
	rs := f.peek(rank)
	if rs == nil {
		panic(fmt.Sprintf("fabric: rank %d has no endpoints", rank))
	}
	return rs.eps.Get(idx)
}

// RankStats sums the counters of every endpoint of rank — the per-device
// traffic split multi-device gates assert on (striping must actually
// spread messages across endpoints, not funnel them through one).
func (f *Fabric) RankStats(rank int) Stats {
	var agg Stats
	rs := f.peek(rank)
	if rs == nil {
		return agg
	}
	for i, n := 0, rs.eps.Len(); i < n; i++ {
		s := rs.eps.Get(i).Stats()
		agg.Msgs += s.Msgs
		agg.Bytes += s.Bytes
		agg.RNR += s.RNR
		agg.Rejects += s.Rejects
		agg.CrossOps += s.CrossOps
		agg.PostedRecvs += s.PostedRecvs
		agg.Pending += s.Pending
		agg.Ready += s.Ready
	}
	return agg
}

// resolve picks the target endpoint for (rank, hint): endpoints wrap
// around, so symmetric jobs address peer device i with hint i.
func (f *Fabric) resolve(rank, hint int) *Endpoint {
	rs := f.peek(rank)
	if rs == nil {
		panic(fmt.Sprintf("fabric: rank %d has no endpoints", rank))
	}
	n := rs.eps.Len()
	if n == 0 {
		panic(fmt.Sprintf("fabric: rank %d has no endpoints", rank))
	}
	if hint < 0 {
		hint = 0
	}
	return rs.eps.Get(hint % n)
}

// Send transmits data (with sender metadata meta) from src to endpoint
// dstDev of rank dst. The data slice is copied before Send returns; the
// caller may reuse it immediately. Send returns ErrNoSlots when the
// target is out of both receive slots and pending-queue space (retry
// later), and fault.ErrPeerDead when an installed injector has the
// source or destination rank in its dead set. An injector may also drop
// (Send still returns nil: the wire ate it after local acceptance),
// delay, or duplicate the message.
func (f *Fabric) Send(dst, dstDev, src int, meta uint32, data []byte) error {
	if inj := f.inj.Load(); inj != nil {
		act := inj.OnSend(src, dst, dstDev, meta)
		if act.PeerDead {
			return fault.ErrPeerDead
		}
		if act.DelayNs > 0 {
			spin.Delay(act.DelayNs)
		}
		if act.Drop {
			return nil
		}
		if act.Duplicate {
			if err := f.deliver(dst, dstDev, src, meta, data); err != nil {
				return err
			}
			// The duplicate copy is best-effort: when it does not fit it
			// is lost, never surfaced as backpressure.
			_ = f.deliver(dst, dstDev, src, meta, data)
			return nil
		}
	}
	return f.deliver(dst, dstDev, src, meta, data)
}

// deliver is the fault-free delivery path Send wraps.
func (f *Fabric) deliver(dst, dstDev, src int, meta uint32, data []byte) error {
	e := f.resolve(dst, dstDev)
	e.rxMu.Lock()
	if e.closed {
		e.rxMu.Unlock()
		return nil
	}
	if s, ok := e.slots.PopFront(); ok {
		copied := copy(s.buf, data)
		e.ready.PushBack(Completion{Kind: RxSend, Ctx: s.ctx, Src: src, Meta: meta, Len: copied})
		e.nReady.Add(1)
		e.rxMu.Unlock()
		e.statMsgs.Add(1)
		e.statBytes.Add(int64(len(data)))
		return nil
	}
	if e.pending.Len() >= f.cfg.PendingCap {
		e.rxMu.Unlock()
		e.statRejects.Add(1)
		return ErrNoSlots
	}
	// RNR path: buffer a private copy in arrival order.
	cp := make([]byte, len(data))
	copy(cp, data)
	e.pending.PushBack(pendingMsg{src: src, meta: meta, data: cp})
	e.rxMu.Unlock()
	e.statRNR.Add(1)
	e.statMsgs.Add(1)
	e.statBytes.Add(int64(len(data)))
	return nil
}

// PostRecv posts a receive slot at endpoint e. If RNR-buffered messages
// are waiting, the oldest is delivered into the new slot immediately,
// preserving arrival order.
func (e *Endpoint) PostRecv(buf []byte, ctx any) {
	e.rxMu.Lock()
	if e.closed {
		e.rxMu.Unlock()
		return
	}
	if p, ok := e.pending.PopFront(); ok {
		copied := copy(buf, p.data)
		e.ready.PushBack(Completion{Kind: RxSend, Ctx: ctx, Src: p.src, Meta: p.meta, Len: copied})
		e.nReady.Add(1)
		e.rxMu.Unlock()
		return
	}
	e.slots.PushBack(recvSlot{buf: buf, ctx: ctx})
	e.rxMu.Unlock()
}

// Close takes the endpoint down, like destroying its queue pair: the
// receive slots posted at it and the events waiting there are dropped,
// and a message or write notification that arrives later is discarded.
// No buffer posted before Close is written again, so its owner may reuse
// the memory.
func (e *Endpoint) Close() {
	e.rxMu.Lock()
	e.closed = true
	e.slots = mpmc.Deque[recvSlot]{}
	e.ready = mpmc.Deque[Completion]{}
	e.pending = mpmc.Deque[pendingMsg]{}
	e.nReady.Store(0)
	e.rxMu.Unlock()
}

// NReady reports, without locking, how many completion events are waiting
// at the endpoint. Progress engines use it to skip a whole poll round when
// the simulated hardware CQ is empty — on real NICs this is the memory
// poll of the CQE ring that costs a cache line, not a lock.
func (e *Endpoint) NReady() int { return int(e.nReady.Load()) }

// PollReady moves up to len(out) pending completion events of endpoint e
// into out and returns how many were delivered.
func (e *Endpoint) PollReady(out []Completion) int {
	if len(out) == 0 {
		return 0
	}
	// Lock-free empty fast path: pollers spin on PollReady far more often
	// than events arrive, and taking the lock on every empty poll would
	// stall senders delivering into this endpoint.
	if e.nReady.Load() == 0 {
		return 0
	}
	e.rxMu.Lock()
	k := 0
	for k < len(out) {
		c, ok := e.ready.PopFront()
		if !ok {
			break
		}
		out[k] = c
		k++
	}
	if k > 0 {
		e.nReady.Add(int32(-k))
	}
	e.rxMu.Unlock()
	return k
}

// RegisterMem registers buf at rank for remote access and returns its
// rkey. Registration is cheap at the fabric layer; provider-level costs
// (registration caches, locks) are modeled in internal/netsim/nic.
func (f *Fabric) RegisterMem(rank int, buf []byte) uint64 {
	rs := f.rank(rank)
	key := f.nextKey.Add(1)
	rs.memMu.Lock()
	rs.regions[key] = memRegion{buf: buf}
	rs.memMu.Unlock()
	return key
}

// DeregisterMem removes a registration.
func (f *Fabric) DeregisterMem(rank int, rkey uint64) {
	rs := f.rank(rank)
	rs.memMu.Lock()
	delete(rs.regions, rkey)
	rs.memMu.Unlock()
}

func (rs *rankState) region(rank int, rkey uint64) ([]byte, error) {
	rs.memMu.Lock()
	r, ok := rs.regions[rkey]
	rs.memMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: rank %d has no memory region with rkey %d", rank, rkey)
	}
	return r.buf, nil
}

// Write performs an RMA write of data into (rkey, offset) at dst. When
// hasImm is true, an RxWriteImm completion carrying imm is queued at
// endpoint notifyDev of the target. The byte movement happens on the
// calling goroutine (the simulated DMA engine).
func (f *Fabric) Write(dst, notifyDev, src int, rkey, offset uint64, data []byte, imm uint64, hasImm bool) error {
	if inj := f.inj.Load(); inj != nil {
		act := inj.OnRMA(src, dst)
		if act.PeerDead {
			return fault.ErrPeerDead
		}
		if act.DelayNs > 0 {
			spin.Delay(act.DelayNs)
		}
	}
	rs := f.peek(dst)
	if rs == nil {
		return fmt.Errorf("fabric: rank %d has no memory region with rkey %d", dst, rkey)
	}
	region, err := rs.region(dst, rkey)
	if err != nil {
		return err
	}
	if offset+uint64(len(data)) > uint64(len(region)) {
		return fmt.Errorf("fabric: write of %d bytes at offset %d exceeds region size %d", len(data), offset, len(region))
	}
	copy(region[offset:], data)
	rs.rmaBytes.Add(int64(len(data)))
	if hasImm {
		e := f.resolve(dst, notifyDev)
		e.rxMu.Lock()
		if !e.closed {
			e.ready.PushBack(Completion{Kind: RxWriteImm, Src: src, Imm: imm, Len: len(data)})
			e.nReady.Add(1)
		}
		e.rxMu.Unlock()
	}
	return nil
}

// Read performs an RMA read from (rkey, offset) at dst into the local
// buffer into. Like Write it is synchronous; the target CPU is not
// involved, matching RDMA-read semantics.
func (f *Fabric) Read(dst int, rkey, offset uint64, into []byte) error {
	if inj := f.inj.Load(); inj != nil {
		act := inj.OnRMA(-1, dst)
		if act.PeerDead {
			return fault.ErrPeerDead
		}
		if act.DelayNs > 0 {
			spin.Delay(act.DelayNs)
		}
	}
	rs := f.peek(dst)
	if rs == nil {
		return fmt.Errorf("fabric: rank %d has no memory region with rkey %d", dst, rkey)
	}
	region, err := rs.region(dst, rkey)
	if err != nil {
		return err
	}
	if offset+uint64(len(into)) > uint64(len(region)) {
		return fmt.Errorf("fabric: read of %d bytes at offset %d exceeds region size %d", len(into), offset, len(region))
	}
	copy(into, region[offset:])
	rs.rmaBytes.Add(int64(len(into)))
	return nil
}

// Stats is a snapshot of endpoint counters.
type Stats struct {
	Msgs, Bytes, RNR, Rejects   int64
	CrossOps                    int64 // ops driven from a remote NUMA domain
	PostedRecvs, Pending, Ready int
}

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	e.rxMu.Lock()
	posted, pend, ready := e.slots.Len(), e.pending.Len(), e.ready.Len()
	e.rxMu.Unlock()
	return Stats{
		Msgs: e.statMsgs.Load(), Bytes: e.statBytes.Load(),
		RNR: e.statRNR.Load(), Rejects: e.statRejects.Load(),
		CrossOps:    e.statCross.Load(),
		PostedRecvs: posted, Pending: pend, Ready: ready,
	}
}

// RMABytes reports total RMA bytes moved into rank's regions.
func (f *Fabric) RMABytes(rank int) int64 {
	rs := f.peek(rank)
	if rs == nil {
		return 0
	}
	return rs.rmaBytes.Load()
}

// pacerEpoch anchors Pacer timestamps to a process-local monotonic clock.
var pacerEpoch = time.Now()

// Pacer models the serial operation pipeline of one NIC endpoint (WQE
// fetch, doorbell processing, DMA scheduling): the endpoint drains one
// operation per gap nanoseconds, with a short queue in front of the
// pipeline so bursts are absorbed rather than refused (like WQEs waiting
// in the send queue). Once the queue of booked slots runs a full burst
// window ahead of real time, further posts are refused — the provider
// surfaces that as transmit-queue backpressure, and the caller retries
// through the normal LCI retry machinery. This is what makes device-count
// scaling visible in the simulation on any host core count: a single
// endpoint sustains at most 1/gap operations per second however many
// threads feed it, while N endpoints sustain N/gap, mirroring the
// injection-rate parallelism of real multi-QP / multi-VCI hardware.
type Pacer struct {
	gap   int64
	burst int64
	next  atomic.Int64 // time the pipeline frees (monotonic ns since pacerEpoch)
}

// pacerBurst is how many pipeline slots may be booked ahead of real time:
// deep enough that a handful of threads posting simultaneously all get
// slots, shallow enough that sustained overload still backpressures.
const pacerBurst = 4

// Init sets the pacing gap in nanoseconds; zero disables pacing.
func (p *Pacer) Init(gapNs int) {
	p.gap = int64(gapNs)
	p.burst = pacerBurst
}

// Release returns a slot booked by TryReserve when the operation it was
// booked for never reached the wire (e.g. the send queue rejected it):
// a failed post must not burn modeled injection bandwidth.
func (p *Pacer) Release() {
	if p.gap != 0 {
		p.next.Add(-p.gap)
	}
}

// TryReserve books the endpoint's next pipeline slot. It reports false —
// backpressure — when the pipeline is already booked a full burst window
// into the future.
func (p *Pacer) TryReserve() bool {
	if p.gap == 0 {
		return true
	}
	now := time.Since(pacerEpoch).Nanoseconds()
	for {
		next := p.next.Load()
		if next-now > (p.burst-1)*p.gap {
			return false
		}
		booked := next
		if booked < now {
			booked = now // idle pipeline: the slot starts immediately
		}
		if p.next.CompareAndSwap(next, booked+p.gap) {
			return true
		}
	}
}
