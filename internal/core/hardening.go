package core

import (
	"errors"
	"sync/atomic"

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

// armTimeout starts the timeout clock of a handshake whose token was just
// allocated, when rendezvous timeouts are configured, and raises
// attention so the clock ticks for it. The clock starts at 0 but 0 means
// "unarmed", so arming clamps to 1.
func (d *Device) armTimeout(lastEpoch *atomic.Uint64) {
	if d.rdvTimeoutEpochs <= 0 {
		return
	}
	e := d.rdvEpoch.Load()
	if e == 0 {
		e = 1
	}
	lastEpoch.Store(e)
	d.attention.Store(true)
}

// scanRdvTimeouts walks the live token table and retransmits or fails
// overdue handshakes. One scanner at a time (try-lock, like the CQ
// poller); entries are re-validated with releaseIf before any failure
// fire, so a handshake that completes mid-scan is left alone.
func (d *Device) scanRdvTimeouts(epoch uint64) {
	if !d.rdvMu.TryLock() {
		return
	}
	d.rdvScratch = d.tokens.scan(d.rdvScratch[:0])
	for i := range d.rdvScratch {
		ref := &d.rdvScratch[i]
		switch s := ref.v.(type) {
		case *sendState:
			d.checkSendTimeout(epoch, ref.tok, s)
		case *rdvState:
			d.checkRecvTimeout(epoch, ref.tok, s)
		}
		ref.v = nil // drop the reference for the GC
	}
	d.rdvMu.Unlock()
}

// checkSendTimeout handles one overdue sender-side handshake: re-send the
// stored RTS (bounded attempts), then fail with ErrTimeout.
func (d *Device) checkSendTimeout(epoch uint64, tok uint32, ss *sendState) {
	le := ss.lastEpoch.Load()
	if le == 0 || epoch-le < uint64(d.rdvTimeoutEpochs) {
		return
	}
	if int(ss.attempts) >= d.rdvMaxAttempts {
		if d.tokens.releaseIf(tok, ss) {
			if d.tel.Counting() {
				d.tc.RdvTimeouts.Add(1)
			}
			d.failSend(ss.comp, ss.st, ErrTimeout)
		}
		return
	}
	ss.attempts++
	ss.lastEpoch.Store(epoch)
	if d.tel.Counting() {
		d.tc.Retransmits.Add(1)
	}
	d.sendControl(control{dst: ss.dst, rdev: ss.rdev, hdr: ss.hdr, tok: tok, owner: ss})
}

// checkRecvTimeout handles one overdue receiver-side handshake: re-send
// the stored RTR verbatim (same receiver token and rkey — idempotent),
// then fail the receive with ErrTimeout.
func (d *Device) checkRecvTimeout(epoch uint64, tok uint32, st *rdvState) {
	le := st.lastEpoch.Load()
	if le == 0 || epoch-le < uint64(d.rdvTimeoutEpochs) {
		return
	}
	if int(st.attempts) >= d.rdvMaxAttempts {
		if d.tokens.releaseIf(tok, st) {
			if d.tel.Counting() {
				d.tc.RdvTimeouts.Add(1)
			}
			d.failRecv(st, ErrTimeout)
		}
		return
	}
	st.attempts++
	st.lastEpoch.Store(epoch)
	if d.tel.Counting() {
		d.tc.Retransmits.Add(1)
	}
	d.sendControl(control{dst: st.src, rdev: int(st.seen.sdev), hdr: st.hdr, tok: tok, owner: st})
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

// failRecv error-completes a receiver-side rendezvous: release the memory
// registration, tombstone the handshake so late duplicates are absorbed,
// reclaim AM buffers, and signal the receive's completion object.
func (d *Device) failRecv(st *rdvState, err error) {
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
		return
	}
	if st.comp != nil {
		st.comp.Signal(base.Status{
			State: base.Done, Rank: st.src, Tag: st.tag, Ctx: st.ctx,
		}.WithErr(err))
	}
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
			}
		}
	}
	for _, ref := range d.tokens.scan(nil) {
		switch s := ref.v.(type) {
		case *sendState:
			if inj.Dead(s.dst) && d.tokens.releaseIf(ref.tok, s) {
				if d.tel.Counting() {
					d.tc.DeadSweeps.Add(1)
				}
				d.failSend(s.comp, s.st, network.ErrPeerDead)
			}
		case *rdvState:
			if inj.Dead(s.src) && d.tokens.releaseIf(ref.tok, s) {
				if d.tel.Counting() {
					d.tc.DeadSweeps.Add(1)
				}
				d.failRecv(s, network.ErrPeerDead)
			}
		}
	}
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
	}
	return len(removed)
}

// abortInFlight error-completes every handshake still live in the token
// table with ErrClosed. Runtime.Close calls it after the bounded drain and
// before tearing the device down, so completion objects are signaled while
// the device can still deregister memory — nothing leaks, nothing wedges.
func (d *Device) abortInFlight() {
	for _, ref := range d.tokens.scan(nil) {
		switch s := ref.v.(type) {
		case *sendState:
			if d.tokens.releaseIf(ref.tok, s) {
				d.failSend(s.comp, s.st, ErrClosed)
			}
		case *rdvState:
			if d.tokens.releaseIf(ref.tok, s) {
				d.failRecv(s, ErrClosed)
			}
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
	e, dup := d.seen[key]
	if !dup {
		d.seen[key] = rdvSeenEntry{state: seenParked}
	}
	d.seenMu.Unlock()
	if !dup {
		return true
	}
	if d.tel.Counting() {
		d.tc.DupSuppressed.Add(1)
	}
	if e.state == seenInvited {
		if d.tel.Counting() {
			d.tc.Retransmits.Add(1)
		}
		// No owner: a peer death is reported by the dead-rank sweep.
		d.sendControl(control{dst: int(key.src), rdev: int(key.sdev), hdr: e.hdr})
	}
	return false
}

// rdvInvited records that the handshake named by key has been answered
// with hdr, so duplicate RTS arrivals can re-send it verbatim.
func (d *Device) rdvInvited(key rdvSeenKey, hdr header) {
	d.seenMu.Lock()
	d.seen[key] = rdvSeenEntry{state: seenInvited, hdr: hdr}
	d.seenMu.Unlock()
}

// noteSeenDone tombstones a finished handshake. Tombstones live in a
// bounded FIFO (seenTombstones) so the seen-set cannot grow without
// bound; a duplicate arriving after eviction would re-enter as parked and
// wedge only if it could still match — it cannot, because its sender
// token generation is stale and the write-imm path suppresses it.
func (d *Device) noteSeenDone(key rdvSeenKey) {
	d.seenMu.Lock()
	if d.seen[key].state != seenDone {
		d.seen[key] = rdvSeenEntry{state: seenDone}
		d.doneLog = append(d.doneLog, key)
		if len(d.doneLog)-d.doneHead > seenTombstones {
			delete(d.seen, d.doneLog[d.doneHead])
			d.doneLog[d.doneHead] = rdvSeenKey{}
			d.doneHead++
			if d.doneHead >= seenTombstones {
				n := copy(d.doneLog, d.doneLog[d.doneHead:])
				d.doneLog = d.doneLog[:n]
				d.doneHead = 0
			}
		}
	}
	d.seenMu.Unlock()
}
