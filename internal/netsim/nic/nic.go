// Package nic simulates the network providers LCI runs on — libibverbs
// (mlx5) and libfabric (cxi/verbs) — as one device model on top of the
// fabric substrate. The providers differ, for the paper's purposes (§5.2.3,
// §5.2.4), only in lock granularity and in the cxi registration cache, so
// both are data here: a LockLayout chooses which spinlocks the post,
// receive-posting and CQ-polling paths take, and RegCacheNs > 0 gives the
// domain a registration cache whose global mutex every data operation
// consults. Everything else — lazily connected peers, send credits, the
// injection pacer, the cross-domain penalty, the CQE ring — is shared.
//
// Per-operation CPU costs (posting a WQE and ringing the doorbell,
// consuming a CQE, a registration-cache lookup) are modeled with
// calibrated busy-waiting inside the locks the real driver holds, so that
// lock hold times — and therefore multithreaded contention — behave like
// the real provider's.
package nic

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"lci/internal/mpmc"
	"lci/internal/netsim/fabric"
	"lci/internal/spin"
)

// ErrTxFull is returned, unwrapped, when the send queue has no free slot,
// the injection pipeline is booked, or the receiver is out of buffering;
// the caller must poll the CQ and retry.
var ErrTxFull = errors.New("nic: send queue full")

// LockLayout selects the provider lock structure a device models.
type LockLayout uint8

const (
	// LockPerQP is libibverbs with one thread domain (uUAR lock) per QP,
	// plus the QP's own spinlock, an SRQ lock and a CQ lock (the default).
	LockPerQP LockLayout = iota
	// LockAllQP is libibverbs with a single thread domain shared by all
	// QPs of a device; recommended when each thread has a dedicated device.
	LockAllQP
	// LockUUARPool is libibverbs without thread domains: QPs share a small
	// pool of uUARs, each protected by its own lock.
	LockUUARPool
	// LockEndpoint is a libfabric endpoint at FI_THREAD_SAFE: one spinlock
	// serializes every send, receive posting and CQ poll on it.
	LockEndpoint
)

func (l LockLayout) String() string {
	switch l {
	case LockPerQP:
		return "per_qp"
	case LockAllQP:
		return "all_qp"
	case LockUUARPool:
		return "uuar_pool"
	case LockEndpoint:
		return "endpoint"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// Provider names the provider family the layout models: "ofi" for the
// endpoint lock, "ibv" for the thread-domain layouts.
func (l LockLayout) Provider() string {
	if l == LockEndpoint {
		return "ofi"
	}
	return "ibv"
}

// nUUARs is the size of the shared uUAR pool under LockUUARPool.
const nUUARs = 4

// Config holds the provider cost model and sizing. Zero fields take the
// layout's defaults: mlx5-like for the thread-domain layouts, cxi-like for
// LockEndpoint. Like every knob here they are calibrated for shape, not
// absolute hardware numbers.
type Config struct {
	Layout         LockLayout
	TxDepth        int // send-queue depth per device (default 256)
	SendOverheadNs int // WQE write + doorbell, under the post locks (default 150 ibv, 200 ofi)
	RecvOverheadNs int // per-CQE consumption, under the CQ lock (default 100 ibv, 120 ofi)
	// InlineSize is the largest send with no completion context that is
	// posted without a local completion: ibv max_inline_data (default 220)
	// or the fi_inject ceiling (default 192).
	InlineSize int
	// InjectGapNs is the minimum spacing between operations injected
	// through one device — the serialization of the endpoint's WQE fetch /
	// doorbell / DMA pipeline, which caps what one QP/CQ set absorbs no
	// matter how many threads feed it. Early posts see ErrTxFull, so
	// replicating devices raises a rank's injection ceiling
	// proportionally. Zero disables pacing; see fabric.Pacer.
	InjectGapNs int
	// CrossDomainNs is the per-operation cost of driving the device from a
	// remote NUMA domain (doorbell MMIO, CQE and WQE cache lines crossing
	// the socket interconnect), per topology hop unit. Charged only on
	// devices bound to a domain by callers whose domain is known; zero
	// disables the model.
	CrossDomainNs int
	// ConnectSetupNs is the one-time cost of establishing per-peer state
	// on first use: the INIT→RTR→RTS transitions of an RC queue pair, or
	// an fi_av_insert plus connection setup. It is charged exactly once per
	// (device, peer) by the poster that wins the connect race; racing
	// posters wait for it. Zero disables the charge (state is still
	// created lazily).
	ConnectSetupNs int
	// RegCacheNs, when positive, gives the domain a registration cache:
	// every data operation consults it for this long under the domain's
	// global mutex (the cxi behaviour of §5.2.4), and (de)registration
	// takes the same mutex. Zero (the thread-domain default) means
	// registration takes no user-space lock, as in libibverbs; the
	// LockEndpoint default is 60.
	RegCacheNs int
	// RegisterNs is the full registration cost under the registration
	// cache mutex (LockEndpoint default 400; unused without a cache).
	RegisterNs int
}

func (c Config) withDefaults() Config {
	def := Config{TxDepth: 256, SendOverheadNs: 150, RecvOverheadNs: 100, InlineSize: 220}
	if c.Layout == LockEndpoint {
		def = Config{TxDepth: 256, SendOverheadNs: 200, RecvOverheadNs: 120, InlineSize: 192,
			RegCacheNs: 60, RegisterNs: 400}
	}
	orDefault(&c.TxDepth, def.TxDepth)
	orDefault(&c.SendOverheadNs, def.SendOverheadNs)
	orDefault(&c.RecvOverheadNs, def.RecvOverheadNs)
	orDefault(&c.InlineSize, def.InlineSize)
	orDefault(&c.RegCacheNs, def.RegCacheNs)
	orDefault(&c.RegisterNs, def.RegisterNs)
	return c
}

func orDefault(v *int, def int) {
	if *v <= 0 {
		*v = def
	}
}

// Domain is the per-process provider handle (an ibv_context or a
// libfabric domain). It owns the registration cache and its mutex.
type Domain struct {
	fab   *fabric.Fabric
	rank  int
	cfg   Config
	regMu spin.Mutex
	reg   *spin.Mutex // &regMu with a registration cache, nil without
}

// NewDomain opens the provider for rank on fab.
func NewDomain(fab *fabric.Fabric, rank int, cfg Config) *Domain {
	d := &Domain{fab: fab, rank: rank, cfg: cfg.withDefaults()}
	if d.cfg.RegCacheNs > 0 {
		d.reg = &d.regMu
	}
	return d
}

// Rank returns the local rank.
func (d *Domain) Rank() int { return d.rank }

// NumRanks returns the number of ranks on the fabric.
func (d *Domain) NumRanks() int { return d.fab.NumRanks() }

// Config returns the effective (defaulted) configuration.
func (d *Domain) Config() Config { return d.cfg }

// peer is the lazily established per-peer state: a queue pair, or an
// address-vector entry under LockEndpoint. td and qp are the locks a post
// to the peer takes, in order; qp is nil when td alone (the endpoint lock)
// serializes the post. ready flips once the modeled setup has completed.
type peer struct {
	td, qp *spin.Mutex
	ready  atomic.Bool
}

func (p *peer) lock() {
	p.td.Lock()
	if p.qp != nil {
		p.qp.Lock()
	}
}

func (p *peer) unlock() {
	if p.qp != nil {
		p.qp.Unlock()
	}
	p.td.Unlock()
}

// waitReady blocks until the connect winner finished the modeled setup.
// The wait is bounded by ConnectSetupNs of busy work on the winner, so
// yielding (rather than pure spinning) keeps oversubscribed worlds live.
func (p *peer) waitReady() {
	for !p.ready.Load() {
		runtime.Gosched()
	}
}

// Device bundles one CQ, one receive queue and one lazily established
// peer entry per contacted peer — the LCI backend's network device
// (§5.2.3/§5.2.4). Per-peer memory and setup cost are proportional to the
// peers actually talked to; only the atomic pointer-slot index is
// O(ranks).
type Device struct {
	dom    *Domain
	ep     *fabric.Endpoint
	peers  []atomic.Pointer[peer] // connect-on-first-use slots, first post wins
	nPeers atomic.Int32

	// The layout resolved into locks once, at NewDevice. own holds the
	// device's SRQ and CQ locks — under LockEndpoint own[0] is the
	// endpoint lock and serves both. tds is the shared thread-domain pool
	// a connecting peer draws its td lock from (nil under LockPerQP,
	// where each QP gets its own).
	own    [2]spin.Mutex
	rx, cq *spin.Mutex
	tds    []*spin.Mutex
	// Lock identities reported to the try-lock wrapper: a post to dst
	// takes identity dst % nSend; rxID and cqID name the receive-posting
	// and CQ-polling locks.
	nSend, rxID, cqID int

	txEv    *mpmc.Queue[fabric.Completion]
	credits atomic.Int32
	pacer   fabric.Pacer
}

// NewDevice creates a device (CQ + receive queue; per-peer state is
// established on first post).
func (d *Domain) NewDevice() *Device {
	n := d.fab.NumRanks()
	v := &Device{
		dom:   d,
		ep:    d.fab.NewEndpoint(d.rank),
		peers: make([]atomic.Pointer[peer], n),
		txEv:  mpmc.NewQueue[fabric.Completion](256),
	}
	v.credits.Store(int32(d.cfg.TxDepth))
	v.pacer.Init(d.cfg.InjectGapNs)
	v.rx, v.cq = &v.own[0], &v.own[1]
	switch d.cfg.Layout {
	case LockAllQP:
		v.tds = []*spin.Mutex{new(spin.Mutex)}
	case LockUUARPool:
		v.tds = make([]*spin.Mutex, nUUARs)
		for i := range v.tds {
			v.tds[i] = new(spin.Mutex)
		}
	case LockEndpoint:
		v.tds = []*spin.Mutex{v.rx}
		v.cq = v.rx
	}
	v.nSend = len(v.tds)
	if v.tds == nil {
		v.nSend = n
	}
	if v.cq != v.rx { // SRQ and CQ locks get identities after the send locks
		v.rxID, v.cqID = v.nSend, v.nSend+1
	}
	return v
}

// peer returns the established state for dst, connecting on first use.
func (d *Device) peer(dst int) *peer {
	if p := d.peers[dst].Load(); p != nil {
		p.waitReady()
		return p
	}
	return d.connect(dst)
}

// connect establishes the state for dst: the first poster wins the CAS
// race, builds it and pays the modeled setup cost exactly once; losers
// adopt the winner's entry and wait for it to become ready.
func (d *Device) connect(dst int) *peer {
	p := &peer{}
	if d.tds == nil {
		p.td = new(spin.Mutex)
	} else {
		p.td = d.tds[dst%len(d.tds)]
	}
	if d.dom.cfg.Layout != LockEndpoint {
		p.qp = new(spin.Mutex)
	}
	if !d.peers[dst].CompareAndSwap(nil, p) {
		p = d.peers[dst].Load()
		p.waitReady()
		return p
	}
	spin.Delay(d.dom.cfg.ConnectSetupNs)
	d.nPeers.Add(1)
	d.dom.fab.NoteEstablish(d.dom.rank, dst)
	p.ready.Store(true)
	return p
}

// ConnectedPeers reports how many peers this device has established state
// toward — after a sparse workload the number of peers actually posted
// to, not NumRanks (the rank-scaling gate asserts exactly that).
func (d *Device) ConnectedPeers() int { return int(d.nPeers.Load()) }

// NumLocks reports how many distinct lock identities the device's post,
// receive-posting and CQ-polling paths use; SendLock, RecvLock and CQLock
// name them. Two paths share an identity exactly when they share a
// provider lock, so the LCI try-lock wrapper (§5.2.2) can mirror the
// native granularity. Under LockPerQP the send identities are one per
// peer — the wrapper is expected to materialize them lazily.
func (d *Device) NumLocks() int { return d.cqID + 1 }

// SendLock maps a destination rank to the lock identity its posts take.
func (d *Device) SendLock(dst int) int { return dst % d.nSend }

// RecvLock is the lock identity receive posting takes.
func (d *Device) RecvLock() int { return d.rxID }

// CQLock is the lock identity CQ polling takes.
func (d *Device) CQLock() int { return d.cqID }

// Index returns the device's endpoint index within its rank.
func (d *Device) Index() int { return d.ep.Index() }

// Stats snapshots the device's fabric-endpoint counters.
func (d *Device) Stats() fabric.Stats { return d.ep.Stats() }

// BindDomain models the device's backing resources (queues, doorbell
// pages, buffers) as allocated in NUMA domain dom of the fabric's host
// topology. Call it at construction time, before traffic flows.
func (d *Device) BindDomain(dom int) { d.ep.BindDomain(dom) }

// Domain reports the device's bound NUMA domain (topo.UnknownDomain when
// unbound).
func (d *Device) Domain() int { return d.ep.Domain() }

// CrossDelay charges the modeled cost of one operation driven from NUMA
// domain `from`: CrossDomainNs per topology hop unit between the caller's
// domain and the device's bound domain. Local, unbound or unknown-domain
// callers pay nothing, so this is free until a placement binds domains.
func (d *Device) CrossDelay(from int) {
	ns := d.dom.cfg.CrossDomainNs
	if ns <= 0 || from < 0 {
		return
	}
	h := d.dom.fab.Topology().Hops(from, d.ep.Domain())
	if h == 0 {
		return
	}
	d.ep.NoteCrossOp()
	spin.Delay(h * ns)
}

// begin is the prologue every post shares: connect to dst on first use,
// book the injection pipeline, take a send credit for a signaled op, and
// consult the registration cache when the domain has one. It returns the
// peer whose locks the WQE post takes.
func (d *Device) begin(dst int, signaled bool) (*peer, error) {
	p := d.peer(dst)
	if !d.pacer.TryReserve() {
		return nil, ErrTxFull // endpoint pipeline busy: backpressure, retry
	}
	if signaled && d.credits.Add(-1) < 0 {
		d.credits.Add(1)
		d.pacer.Release()
		return nil, ErrTxFull
	}
	if reg := d.dom.reg; reg != nil {
		reg.Lock()
		spin.Delay(d.dom.cfg.RegCacheNs)
		reg.Unlock()
	}
	return p, nil
}

// end is the epilogue: on failure return the credit and pipeline slot, on
// success queue the local completion of a signaled op.
func (d *Device) end(err error, signaled bool, kind fabric.CompKind, ctx any) error {
	if err != nil {
		if signaled {
			d.credits.Add(1)
		}
		d.pacer.Release()
		if errors.Is(err, fabric.ErrNoSlots) {
			return ErrTxFull // receiver RNR-saturated: behaves like tx backpressure
		}
		return err // non-retryable fabric verdict (e.g. fault.ErrPeerDead)
	}
	if signaled {
		d.txEv.Enqueue(fabric.Completion{Kind: kind, Ctx: ctx})
	}
	return nil
}

// PostSend posts an eager send of data to endpoint dstDev of rank dst with
// metadata meta. On success a TxDone completion carrying ctx will surface
// from PollCQ — except for inline sends: a send with no completion context
// that fits InlineSize is posted unsignaled (IBV_SEND_INLINE / fi_inject),
// the buffer is reusable on return and no local completion is generated.
func (d *Device) PostSend(dst, dstDev int, meta uint32, data []byte, ctx any) error {
	signaled := ctx != nil || len(data) > d.dom.cfg.InlineSize
	p, err := d.begin(dst, signaled)
	if err != nil {
		return err
	}
	p.lock()
	spin.Delay(d.dom.cfg.SendOverheadNs)
	err = d.dom.fab.Send(dst, dstDev, d.dom.rank, meta, data)
	p.unlock()
	return d.end(err, signaled, fabric.TxDone, ctx)
}

// PostWrite posts an RMA write (optionally with immediate notifying
// endpoint notifyDev). The WQE post happens under the post locks; the
// data movement (simulated DMA) happens outside them, as on hardware.
func (d *Device) PostWrite(dst, notifyDev int, rkey, offset uint64, data []byte, imm uint64, hasImm bool, ctx any) error {
	p, err := d.begin(dst, true)
	if err != nil {
		return err
	}
	p.lock()
	spin.Delay(d.dom.cfg.SendOverheadNs)
	p.unlock()
	err = d.dom.fab.Write(dst, notifyDev, d.dom.rank, rkey, offset, data, imm, hasImm)
	return d.end(err, true, fabric.TxDone, ctx)
}

// PostRead posts an RMA read from (rkey, offset) at dst into the local
// buffer into. A ReadDone completion carrying ctx surfaces from PollCQ.
func (d *Device) PostRead(dst int, rkey, offset uint64, into []byte, ctx any) error {
	p, err := d.begin(dst, true)
	if err != nil {
		return err
	}
	p.lock()
	spin.Delay(d.dom.cfg.SendOverheadNs)
	p.unlock()
	err = d.dom.fab.Read(dst, rkey, offset, into)
	return d.end(err, true, fabric.ReadDone, ctx)
}

// PostRecv posts a receive buffer to the shared receive queue.
func (d *Device) PostRecv(buf []byte, ctx any) {
	d.rx.Lock()
	d.ep.PostRecv(buf, ctx)
	d.rx.Unlock()
}

// Close takes the device's endpoint down (fabric.Endpoint.Close): the
// receive buffers posted at it are never written again.
func (d *Device) Close() { d.ep.Close() }

// CQEmpty reports, without locking, whether the completion queue has
// nothing to deliver — like ibv_poll_cq returning 0 or fi_cq_read
// returning -FI_EAGAIN, a read of the CQE ring state.
func (d *Device) CQEmpty() bool {
	return d.txEv.Len() == 0 && d.ep.NReady() == 0
}

// PollCQ drains up to len(out) completions. TX-side completions restore
// send credits. A non-empty poll holds the CQ lock; an empty poll is
// resolved by the CQE-ring peek alone.
func (d *Device) PollCQ(out []fabric.Completion) int {
	if d.CQEmpty() {
		return 0
	}
	d.cq.Lock()
	k := 0
	for k < len(out) {
		c, ok := d.txEv.Dequeue()
		if !ok {
			break
		}
		spin.Delay(d.dom.cfg.RecvOverheadNs)
		d.credits.Add(1)
		out[k] = c
		k++
	}
	if k < len(out) {
		n := d.ep.PollReady(out[k:])
		for i := 0; i < n; i++ {
			spin.Delay(d.dom.cfg.RecvOverheadNs)
		}
		k += n
	}
	d.cq.Unlock()
	return k
}

// RegisterMem registers buf for RMA and returns its rkey. Without a
// registration cache no user-space lock is taken (libibverbs, §5.2.3);
// with one, the full registration holds the global mutex for RegisterNs.
func (d *Device) RegisterMem(buf []byte) uint64 {
	dom := d.dom
	if dom.reg == nil {
		return dom.fab.RegisterMem(dom.rank, buf)
	}
	dom.reg.Lock()
	spin.Delay(dom.cfg.RegisterNs)
	key := dom.fab.RegisterMem(dom.rank, buf)
	dom.reg.Unlock()
	return key
}

// DeregisterMem removes a registration (under the registration-cache
// mutex when the domain has one).
func (d *Device) DeregisterMem(rkey uint64) {
	dom := d.dom
	if dom.reg == nil {
		dom.fab.DeregisterMem(dom.rank, rkey)
		return
	}
	dom.reg.Lock()
	spin.Delay(dom.cfg.RegCacheNs)
	dom.fab.DeregisterMem(dom.rank, rkey)
	dom.reg.Unlock()
}
