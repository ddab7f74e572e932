package core

import (
	"errors"

	"lci/internal/base"
	"lci/internal/network"
	"lci/internal/packet"
)

// This file is the runtime's one way to submit work to the network and to
// defer it: every post and every protocol control message goes through
// submit, and the device's backlog queue (§5.1.5) holds what submit
// parks. A request lands there when it can neither be submitted now nor
// bounced back to the user — a DisallowRetry post, or a rendezvous
// message sent from inside the progress engine, where retrying in place
// could deadlock. Progress retries the backlog before polling. The paper
// expects this to be rare, so the queue is deliberately simple: a
// spinlocked deque, with an atomic flag that lets the progress engine skip
// an empty backlog without taking the lock.

// A deferrable is one network submission with every argument resolved
// when it is built. Submissions are small values: the backlog parks a
// copy, so a submission that goes out at once allocates nothing for the
// chance that it might have parked.
type deferrable interface {
	// try makes one attempt; parked is set on backlog retries.
	try(d *Device, parked bool) error
	// fail reports a fatal error met on a backlog retry through the
	// operation's completion object, exactly once.
	fail(d *Device, err error)
}

// retryable reports whether err is a transient condition worth retrying.
func retryable(err error) bool {
	return errors.Is(err, network.ErrRetry) || errors.Is(err, errNoPacket)
}

var errNoPacket = errors.New("lci: packet pool empty")

// noPacket is the error for an empty packet pool on a message to dst:
// errNoPacket, unless dst is already dead. A dead peer makes the message
// fatal whether or not a packet turns up, and a parked one must not hold
// the backlog head — every later entry, to live peers too — waiting for
// a packet only to fail then.
func (d *Device) noPacket(dst int) error {
	if d.inj != nil && d.inj.Dead(dst) {
		return network.ErrPeerDead
	}
	return errNoPacket
}

// submit makes one attempt of s on d and settles the outcome:
//   - the attempt went out: a zero Status (Done) and nil;
//   - a fatal error: the error, for the caller to return or report;
//   - a transient error with park set: s is parked on the backlog and the
//     result is Posted with reason RetryBacklog (§5.4, reaction 2);
//   - a transient error otherwise: the retry is counted and returned as a
//     Retry status.
func submit[S deferrable](d *Device, s S, park bool) (base.Status, error) {
	err := s.try(d, false)
	if err == nil || !retryable(err) {
		return base.Status{}, err
	}
	if !park {
		d.noteRetry(err)
		return classifyRetry(err), nil
	}
	if d.tel.Counting() {
		d.tc.BacklogParks.Add(1)
	}
	d.bqMu.Lock()
	d.bq.PushBack(s)
	d.bqMu.Unlock()
	d.bqNonEmpty.Store(true)
	return base.Status{State: base.Posted, Reason: base.RetryBacklog}, nil
}

// drainBacklog retries parked submissions in FIFO order until one is
// still transiently refused (it goes back to the head, keeping the order)
// or the backlog empties. A fatal error is reported through the
// submission's own completion object and the drain moves on. It returns
// the number of submissions settled.
func (d *Device) drainBacklog() int {
	done := 0
	for {
		d.bqMu.Lock()
		s, ok := d.bq.PopFront()
		if !ok {
			d.bqNonEmpty.Store(false)
			d.bqMu.Unlock()
			return done
		}
		d.bqMu.Unlock()
		if err := s.try(d, true); err != nil {
			if retryable(err) {
				d.bqMu.Lock()
				d.bq.PushFront(s)
				d.bqMu.Unlock()
				d.bqNonEmpty.Store(true)
				return done
			}
			s.fail(d, err)
		}
		done++
	}
}

// BacklogLen reports the backlog queue length (diagnostics).
func (d *Device) BacklogLen() int {
	d.bqMu.Lock()
	n := d.bq.Len()
	d.bqMu.Unlock()
	return n
}

// eagerSend is an eager send or AM: the header and the payload copied into
// one packet. A parked eager post signals its completion object even at
// inject size — its caller was told Posted, not Done.
type eagerSend struct {
	w      *packet.Worker
	rank   int
	rdev   int
	hdr    header
	buf    []byte
	comp   base.Comp
	ctx    any
	t0     int64
	inject bool
}

func (s eagerSend) try(d *Device, parked bool) error {
	pkt := s.w.Get()
	if pkt == nil {
		return d.noPacket(s.rank)
	}
	s.hdr.encode(pkt.Data)
	n := copy(pkt.Data[headerSize:], s.buf)
	var ctx any
	if s.comp != nil && (parked || !s.inject) {
		ctx = &sendOp{comp: s.comp, st: base.Status{
			State: base.Done, Rank: s.rank, Tag: int(s.hdr.tag), Buffer: s.buf, Size: n, Ctx: s.ctx,
		}, t0: s.t0}
	}
	d.crossDelay(s.w)
	err := d.net.PostSend(s.rank, s.rdev, uint32(s.hdr.kind), pkt.Data[:headerSize+n], ctx)
	// The fabric copies synchronously, so the packet recycles
	// immediately whether the post succeeded or failed.
	s.w.Put(pkt)
	return err
}

func (s eagerSend) fail(d *Device, err error) {
	d.failSend(s.comp, base.Status{State: base.Done, Rank: s.rank, Tag: int(s.hdr.tag), Ctx: s.ctx}, err)
}

// control is a header-only protocol message (RTS, RTR, or a retransmit of
// one). Its failure belongs to the rendezvous that owner tracks under tok
// (a *sendState or an *rdvState): whoever wins the token's releaseIf owns
// the error fire. A nil owner drops the failure (the dead-rank sweep
// reports it).
type control struct {
	w     *packet.Worker
	dst   int
	rdev  int
	hdr   header
	tok   uint32
	owner any
}

func (c control) try(d *Device, _ bool) error {
	pkt := c.w.Get()
	if pkt == nil {
		return d.noPacket(c.dst)
	}
	c.hdr.encode(pkt.Data)
	d.crossDelay(c.w)
	err := d.net.PostSend(c.dst, c.rdev, uint32(c.hdr.kind), pkt.Data[:headerSize], nil)
	c.w.Put(pkt) // the fabric copied the bytes (or it failed); recycle either way
	return err
}

func (c control) fail(d *Device, err error) {
	if c.owner == nil || !d.tokens.releaseIf(c.tok, c.owner) {
		return
	}
	switch s := c.owner.(type) {
	case *sendState:
		d.failSend(s.comp, s.st, err)
	case *rdvState:
		d.failRecv(s, err)
	}
}

// rma is a one-sided transfer: a write of buf (a put, or a rendezvous
// payload) with an optional immediate, or a read into buf. ctx is the
// network completion context, a *sendOp or nil.
type rma struct {
	read   bool
	w      *packet.Worker
	rank   int
	rdev   int
	rkey   uint64
	off    uint64
	buf    []byte
	imm    uint64
	hasImm bool
	ctx    any
}

func (r rma) try(d *Device, _ bool) error {
	d.crossDelay(r.w)
	if r.read {
		return d.net.PostRead(r.rank, r.rkey, r.off, r.buf, r.ctx)
	}
	return d.net.PostWrite(r.rank, r.rdev, r.rkey, r.off, r.buf, r.imm, r.hasImm, r.ctx)
}

func (r rma) fail(d *Device, err error) {
	var comp base.Comp
	var st base.Status
	if op, ok := r.ctx.(*sendOp); ok {
		comp, st = op.comp, op.st
	}
	d.failSend(comp, st, err)
}

// noteRetry classifies a bounced post into its retry counter.
func (d *Device) noteRetry(err error) {
	if d.tel.Counting() {
		d.tc.NoteRetry(errors.Is(err, errNoPacket), errors.Is(err, network.ErrTxFull))
	}
}

func retryStatus(reason base.RetryReason) base.Status {
	return base.Status{State: base.Retry, Reason: reason}
}

func classifyRetry(err error) base.Status {
	if err == errNoPacket {
		return retryStatus(base.RetryPacketPool)
	}
	if err == network.ErrTxFull {
		return retryStatus(base.RetryTxFull)
	}
	return retryStatus(base.RetryLockBusy)
}
