// Package network is LCI's network backend layer (§5.2.1): a thin layer
// over the simulated provider (internal/netsim/nic) that adds the
// try-lock wrappers of §5.2.2. The LCI runtime opens one nic.Domain per
// rank and posts only through the Devices this package wraps. The comparison baselines (MPI-like, GASNet-EX-like) hold
// *nic.Device directly and block on the provider's native locks, as their
// real counterparts do.
//
// A Device contains the network resources accessed on the critical path. LCI requires neither tag
// matching nor unexpected-message handling from the backend: the runtime
// keeps devices supplied with pre-posted receives.
package network

import (
	"errors"
	"fmt"
	"sync/atomic"

	"lci/internal/fault"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/spin"
)

// Completion re-exports the provider completion event.
type Completion = fabric.Completion

// ErrRetry is returned when an operation must be retried: either a
// try-lock wrapper failed to acquire a native-layer lock, or a transmit
// queue is full. The caller distinguishes the two cases with errors.Is on
// ErrTxFull.
var ErrRetry = errors.New("network: busy, retry")

// ErrTxFull wraps provider transmit-queue exhaustion. errors.Is(err,
// ErrRetry) is also true for it.
var ErrTxFull = fmt.Errorf("%w: transmit queue full", ErrRetry)

// ErrPeerDead reports an operation addressed to a downed rank. Unlike
// ErrTxFull it does NOT wrap ErrRetry: the peer is gone, not busy, so
// the runtime error-completes the operation instead of retrying. The
// provider surfaces it unchanged from the fabric's fault injector; this
// alias is the identity the layers above match on.
var ErrPeerDead = fault.ErrPeerDead

// NewDevice opens one provider device of dom behind try-lock wrappers that
// mirror its native lock identities (§5.2.2): one wrapper lock per identity
// the device reports, so paths that share a provider lock share the wrapper
// too. Under the per-QP layout the send identities are one per peer and —
// like the QPs they mirror — materialize lazily on first post; only the
// pointer-slot index is O(ranks). Memory (de)registration is not wrapped:
// it either takes no provider lock or must block on the global
// registration-cache mutex regardless, so there is nothing to mitigate.
func NewDevice(dom *nic.Domain) *Device {
	nd := dom.NewDevice()
	d := &Device{Device: nd, locks: make([]atomic.Pointer[spin.Mutex], nd.NumLocks())}
	d.rx, d.cq = d.lock(nd.RecvLock()), d.lock(nd.CQLock())
	return d
}

// Device is a provider device behind LCI's try-lock wrappers: the posting,
// receive-posting and polling methods return ErrRetry instead of blocking
// on a busy lock, and ErrTxFull on transmit backpressure. The remaining
// methods (Index, CQEmpty, RegisterMem, CrossDelay, ...) are the
// provider's own.
type Device struct {
	*nic.Device
	locks  []atomic.Pointer[spin.Mutex]
	rx, cq *spin.Mutex
}

// lock returns the wrapper try-lock for identity id, allocating it on
// first use (CAS race: first caller wins, losers adopt the winner's lock).
func (d *Device) lock(id int) *spin.Mutex {
	if mu := d.locks[id].Load(); mu != nil {
		return mu
	}
	mu := new(spin.Mutex)
	if d.locks[id].CompareAndSwap(nil, mu) {
		return mu
	}
	return d.locks[id].Load()
}

// txFull maps the provider's backpressure error onto ErrTxFull.
func txFull(err error) error {
	if err == nic.ErrTxFull {
		return ErrTxFull
	}
	return err
}

// PostSend posts an eager send of data with metadata meta to endpoint
// dstDev of rank dst.
func (d *Device) PostSend(dst, dstDev int, meta uint32, data []byte, ctx any) error {
	mu := d.lock(d.SendLock(dst))
	if !mu.TryLock() {
		return ErrRetry
	}
	err := d.Device.PostSend(dst, dstDev, meta, data, ctx)
	mu.Unlock()
	return txFull(err)
}

// PostWrite posts an RMA write, optionally with immediate data notifying
// endpoint notifyDev of the target rank.
func (d *Device) PostWrite(dst, notifyDev int, rkey, offset uint64, data []byte, imm uint64, hasImm bool, ctx any) error {
	mu := d.lock(d.SendLock(dst))
	if !mu.TryLock() {
		return ErrRetry
	}
	err := d.Device.PostWrite(dst, notifyDev, rkey, offset, data, imm, hasImm, ctx)
	mu.Unlock()
	return txFull(err)
}

// PostRead posts an RMA read.
func (d *Device) PostRead(dst int, rkey, offset uint64, into []byte, ctx any) error {
	mu := d.lock(d.SendLock(dst))
	if !mu.TryLock() {
		return ErrRetry
	}
	err := d.Device.PostRead(dst, rkey, offset, into, ctx)
	mu.Unlock()
	return txFull(err)
}

// PostRecv pre-posts a receive buffer. It runs on the progress path; a
// failed try-lock is retried on the next progress call.
func (d *Device) PostRecv(buf []byte, ctx any) error {
	if !d.rx.TryLock() {
		return ErrRetry
	}
	d.Device.PostRecv(buf, ctx)
	d.rx.Unlock()
	return nil
}

// PollCQ drains up to len(out) completions, returning how many. There is
// no emptiness pre-check here: the provider's PollCQ does its own CQE-ring
// peek, and callers that want a lock-free peek use CQEmpty.
func (d *Device) PollCQ(out []Completion) (int, error) {
	if !d.cq.TryLock() {
		return 0, ErrRetry
	}
	n := d.Device.PollCQ(out)
	d.cq.Unlock()
	return n, nil
}
