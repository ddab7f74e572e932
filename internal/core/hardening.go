package core

import (
	"errors"

	"lci/internal/base"
	"lci/internal/fault"
	"lci/internal/matching"
	"lci/internal/network"
	"lci/internal/telemetry"
)

// This file is the failure-domain half of the progress engine. It runs on
// every device; without an installed injector and with rendezvous
// timeouts off, its tick is reached once per device and then stays behind
// the attention flag. The rules it enforces:
//
//   - Every completion object is signaled exactly once, success or
//     failure. Ownership of the error fire is decided by tokenTable
//     releaseIf — whoever wins the compare owns the signal.
//   - Failures are Status values with State=Done and Err set; Retry never
//     carries an error.
//   - Handshake retransmits are idempotent: the stored RTS/RTR header is
//     re-sent verbatim, and duplicates are suppressed by token generations
//     (sender and receiver side) plus the receiver's seen-set.
//   - Handshake records are recycled (recycle.go), so a token-table entry
//     copied by a scan may name a record that now serves another
//     handshake: it is revalidated under the token lock before the
//     record is read or changed.

// The rendezvous timeout clock. Its epoch advances on a progress round
// with rendezvous live, but at most once per rdvEpochNs of monotonic
// time, and the scanner walks the token table once per rdvScanEvery
// epochs. A timeout of RendezvousTimeoutEpochs therefore lasts at least
// that many × 20 µs, measured with rdvScanEvery granularity, however fast
// the device is progressed: a sender spinning on progress while its peer
// is descheduled cannot use its retransmit budget up in a few
// milliseconds.
const (
	rdvEpochNs   = 20_000
	rdvScanEvery = 64
)

// tick is the failure-domain prologue of a progress round that has the
// device's attention (see Device.attention): notice rank deaths (one
// atomic compare against the injector's generation) and drive the
// rendezvous timeout clock while any handshake is outstanding. Once
// neither needs it, the tick drops the attention flag — and re-raises it
// if a kill or a token allocation raced the drop, so a raise is never
// lost.
func (d *Device) tick() {
	if inj := d.inj; inj != nil && inj.DeadGen() != d.deadGen.Load() {
		d.sweepDead(inj)
	}
	if d.rdvTimeoutEpochs > 0 && d.tokens.live() > 0 {
		d.advanceRdvClock()
		return
	}
	d.attention.Store(false)
	if (d.inj != nil && d.inj.DeadGen() != d.deadGen.Load()) ||
		(d.rdvTimeoutEpochs > 0 && d.tokens.live() > 0) {
		d.attention.Store(true)
	}
}

// advanceRdvClock moves the rendezvous epoch on when a quantum has passed
// since its last move, and scans for overdue handshakes every
// rdvScanEvery epochs. The compare-and-swap on the quantum's start admits
// one advance per quantum among concurrent progress callers.
func (d *Device) advanceRdvClock() {
	now := telemetry.Now()
	last := d.rdvEpochAt.Load()
	if now-last < rdvEpochNs || !d.rdvEpochAt.CompareAndSwap(last, now) {
		return
	}
	if e := d.rdvEpoch.Add(1); e%rdvScanEvery == 0 {
		d.scanRdvTimeouts(e)
	}
}

// handshake is a rendezvous record held in the token table: a
// *sendState or an *rdvState.
type handshake interface {
	// clock returns the handshake's retransmit state.
	clock() *rdvClock
	// peer is the rank at the other end.
	peer() int
	// resend is the control message a timeout re-sends for the handshake
	// held under tok.
	resend(d *Device, tok uint32) control
	// fail error-completes the handshake and recycles its record. The
	// caller released its token, which makes it the only owner.
	fail(d *Device, err error)
}

// rdvClock is a handshake's retransmit state: re-sends so far and the
// epoch of the last (re)send, 0 = unarmed. It is set before the
// handshake's token exists and afterwards read and updated only under the
// token table's lock (tokenTable.hold).
type rdvClock struct {
	attempts  int32
	lastEpoch uint64
}

func (c *rdvClock) clock() *rdvClock { return c }

// track stores a new handshake in the token table and returns its token.
// When rendezvous timeouts are configured it first stamps the
// handshake's clock — before the token exists, so the scanner, which
// reaches the record only through the token, never sees it unarmed — and
// after the allocation raises attention so the clock ticks for it (raised
// before, a tick could drop it again while the table still looks empty).
// The clock starts at 0 but 0 means "unarmed", so arming clamps to 1.
func (d *Device) track(h handshake) uint32 {
	if d.rdvTimeoutEpochs <= 0 {
		return d.tokens.alloc(h)
	}
	e := d.rdvEpoch.Load()
	if e == 0 {
		e = 1
	}
	h.clock().lastEpoch = e
	tok := d.tokens.alloc(h)
	d.attention.Store(true)
	return tok
}

// scanRdvTimeouts walks the live token table and retransmits or fails
// overdue handshakes. One scanner at a time (try-lock, like the CQ
// poller).
func (d *Device) scanRdvTimeouts(epoch uint64) {
	if !d.rdvMu.TryLock() {
		return
	}
	d.rdvScratch = d.tokens.scan(d.rdvScratch[:0])
	for i := range d.rdvScratch {
		ref := &d.rdvScratch[i]
		if h, ok := ref.v.(handshake); ok {
			d.checkTimeout(epoch, ref.tok, h)
		}
		ref.v = nil // drop the reference for the GC
	}
	d.rdvMu.Unlock()
}

// checkTimeout handles one handshake the scan copied: re-send its stored
// RTS or RTR verbatim when it is overdue (bounded attempts), then fail it
// with ErrTimeout. The copy is revalidated under the token lock before
// the record is read: a handshake that completed since the scan — and
// whose record may already serve another one — is left alone.
func (d *Device) checkTimeout(epoch uint64, tok uint32, h handshake) {
	if !d.tokens.hold(tok, h) {
		return
	}
	c := h.clock()
	if c.lastEpoch == 0 || epoch-c.lastEpoch < uint64(d.rdvTimeoutEpochs) {
		d.tokens.mu.Unlock()
		return
	}
	if int(c.attempts) >= d.rdvMaxAttempts {
		d.tokens.drop(tok)
		if d.tel.Counting() {
			d.tc.RdvTimeouts.Add(1)
		}
		h.fail(d, ErrTimeout)
		return
	}
	c.attempts++
	c.lastEpoch = epoch
	msg := h.resend(d, tok)
	d.tokens.mu.Unlock()
	if d.tel.Counting() {
		d.tc.Retransmits.Add(1)
	}
	d.sendControl(msg)
}

// failSend error-completes a sender-side operation: its prepared Done
// status st with Err set, signaled on comp (if any) exactly once. Callers
// own the fire (they won the releaseIf, or hold the only reference).
func (d *Device) failSend(comp base.Comp, st base.Status, err error) {
	if d.tel.Counting() && errors.Is(err, network.ErrPeerDead) {
		d.tc.PeerDeadErrors.Add(1)
	}
	if comp != nil {
		comp.Signal(st.WithErr(err))
	}
}

func (ss *sendState) peer() int { return ss.op.st.Rank }

func (ss *sendState) resend(d *Device, tok uint32) control {
	c := control{dst: ss.peer(), rdev: ss.rdev, hdr: ss.hdr, tok: tok, owner: ss}
	c.hdr.token = rtsToken(d.Index(), tok)
	return c
}

func (ss *sendState) fail(d *Device, err error) {
	d.failSend(ss.op.comp, ss.op.st, err)
	ss.recycle()
}

func (st *rdvState) peer() int { return st.src }

func (st *rdvState) resend(d *Device, tok uint32) control {
	return control{dst: st.src, rdev: int(st.seen.sdev), hdr: d.rtrHeader(tok, st.senderToken, st.rkey), tok: tok, owner: st}
}

// fail error-completes a receiver-side rendezvous: release the memory
// registration, tombstone the handshake so late duplicates are absorbed,
// reclaim AM buffers, and signal the receive's completion object.
func (st *rdvState) fail(d *Device, err error) {
	d.net.DeregisterMem(st.rkey)
	d.noteSeenDone(st.seen)
	if d.tel.Counting() && errors.Is(err, network.ErrPeerDead) {
		d.tc.PeerDeadErrors.Add(1)
	}
	if st.isAM {
		// The handler never fires for a failed delivery; the buffer goes
		// back to its allocator if one owns it.
		if st.alloc != nil && st.alloc.Free != nil {
			st.alloc.Free(st.buf)
		}
	} else if st.comp != nil {
		st.comp.Signal(base.Status{
			State: base.Done, Rank: st.src, Tag: st.tag, Ctx: st.ctx,
		}.WithErr(err))
	}
	st.recycle()
}

// sweepDead reacts to a new injector death generation: error-complete
// every parked receive that can only match a dead rank, and every
// in-flight handshake whose peer is dead. The generation CAS admits one
// sweeper per device per generation; a second device sweeping the shared
// engines finds them already emptied (RemoveRecvs is idempotent).
func (d *Device) sweepDead(inj *fault.Injector) {
	gen := inj.DeadGen()
	old := d.deadGen.Load()
	if old == gen || !d.deadGen.CompareAndSwap(old, gen) {
		return
	}
	for _, r := range inj.DeadRanks() {
		dr := r
		for _, eng := range d.rt.allEngines() {
			removed := eng.RemoveRecvs(func(key uint64) bool {
				rk, concrete := matching.RankOf(key)
				return concrete && rk == dr
			})
			for _, v := range removed {
				rop := v.(*recvOp)
				if d.tel.Counting() {
					d.tc.DeadSweeps.Add(1)
				}
				if rop.comp != nil {
					rop.comp.Signal(base.Status{
						State: base.Done, Rank: dr, Ctx: rop.ctx,
					}.WithErr(network.ErrPeerDead))
				}
				rop.recycle()
			}
		}
	}
	for _, ref := range d.tokens.scan(nil) {
		if h, ok := ref.v.(handshake); ok && d.releaseIfDead(inj, ref.tok, h) {
			h.fail(d, network.ErrPeerDead)
		}
	}
}

// releaseIfDead releases tok if it still holds h and h's peer — read
// under the token lock, once h is known to be current — is dead.
func (d *Device) releaseIfDead(inj *fault.Injector, tok uint32, h handshake) bool {
	if !d.tokens.hold(tok, h) {
		return false
	}
	if !inj.Dead(h.peer()) {
		d.tokens.mu.Unlock()
		return false
	}
	d.tokens.drop(tok)
	if d.tel.Counting() {
		d.tc.DeadSweeps.Add(1)
	}
	return true
}

// FaultGen exposes the fault domain's death generation: 0 while every
// rank is alive (or no injector is installed), bumped on every kill.
// Layers that park receives from ranks that are still alive but may be
// stranded by a peer's failure (collectives: a dead member's abort
// cascade silences live survivors too) cache this and re-examine their
// parked state when it changes. One atomic load; safe from any thread.
func (rt *Runtime) FaultGen() uint64 {
	if inj := rt.injector(); inj != nil {
		return inj.DeadGen()
	}
	return 0
}

// CancelRecvs removes every receive parked in eng and error-completes
// each with reason — exactly-once, like the dead-rank sweep, because
// RemoveRecvs detaches the ops under the bucket locks before anything is
// signaled. This is the failure-domain escape hatch for receives the
// sweep cannot see: a receive from a live rank whose message will never
// come because the sender aborted after its own dead-peer failure. The
// caller owns the judgment that everything parked in eng is doomed
// (collectives qualify: the comm spans all ranks, so any death dooms
// every in-flight collective on its dedicated engine). Control path
// only; returns the number of receives cancelled.
func (rt *Runtime) CancelRecvs(eng *MatchEngine, reason error) int {
	removed := eng.eng.RemoveRecvs(func(uint64) bool { return true })
	d := rt.defDev
	for _, v := range removed {
		rop := v.(*recvOp)
		if d.tel.Counting() {
			d.tc.DeadSweeps.Add(1)
			if errors.Is(reason, network.ErrPeerDead) {
				d.tc.PeerDeadErrors.Add(1)
			}
		}
		if rop.comp != nil {
			rop.comp.Signal(base.Status{
				State: base.Done, Rank: base.AnySource, Ctx: rop.ctx,
			}.WithErr(reason))
		}
		rop.recycle()
	}
	return len(removed)
}

// abortInFlight error-completes every handshake still live in the token
// table with ErrClosed. Runtime.Close calls it after the bounded drain and
// before tearing the device down, so completion objects are signaled while
// the device can still deregister memory — nothing leaks, nothing wedges.
func (d *Device) abortInFlight() {
	for _, ref := range d.tokens.scan(nil) {
		if h, ok := ref.v.(handshake); ok && d.tokens.releaseIf(ref.tok, h) {
			h.fail(d, ErrClosed)
		}
	}
}

// rdvAdmit decides whether an arriving RTS is the first of its kind. A
// duplicate of a parked RTS is dropped (the original is still queued); a
// duplicate of an invited one re-sends the identical RTR (the first may
// have been lost); a duplicate of a completed one hits the tombstone and
// is absorbed. The key carries the sender's RTS sequence, so it never
// legitimately recurs.
func (d *Device) rdvAdmit(key rdvSeenKey) bool {
	d.seenMu.Lock()
	state, hdr := d.seen.admit(key)
	d.seenMu.Unlock()
	if state == 0 {
		return true
	}
	if d.tel.Counting() {
		d.tc.DupSuppressed.Add(1)
	}
	if state == seenInvited {
		if d.tel.Counting() {
			d.tc.Retransmits.Add(1)
		}
		// No owner: a peer death is reported by the dead-rank sweep.
		d.sendControl(control{dst: int(key.src), rdev: int(key.sdev), hdr: hdr})
	}
	return false
}

// rdvInvited records that the handshake named by key has been answered
// with hdr, so duplicate RTS arrivals can re-send it verbatim.
func (d *Device) rdvInvited(key rdvSeenKey, hdr header) {
	d.seenMu.Lock()
	d.seen.invite(key, hdr)
	d.seenMu.Unlock()
}

// noteSeenDone tombstones a finished handshake. The seen-set keeps the
// last seenTombstones of them; a duplicate arriving after its tombstone's
// eviction would re-enter as parked.
func (d *Device) noteSeenDone(key rdvSeenKey) {
	d.seenMu.Lock()
	d.seen.finish(key)
	d.seenMu.Unlock()
}
