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
// chance that it might have parked, and one that parks allocates nothing
// either (see parked).
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
	p := parkedOf(s)
	d.bqMu.Lock()
	d.bq.PushBack(p)
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
		if err := s.try(d); err != nil {
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

// parked is one backlog entry: a copy of the submission, held by value in
// the backlog's slots so that parking allocates nothing once the deque has
// grown to the backlog's high-water mark, where boxing the submission as a
// deferrable would allocate on every park. kind says which field is set;
// any other deferrable (the backlog tests' stand-ins) stays boxed in other.
type parked struct {
	kind  parkKind
	eager eagerSend
	ctl   control
	rma   rma
	other deferrable
}

type parkKind uint8

const (
	parkOther parkKind = iota
	parkEager
	parkControl
	parkRMA
)

func parkedOf[S deferrable](s S) (p parked) {
	switch v := any(s).(type) {
	case eagerSend:
		p.kind, p.eager = parkEager, v
	case control:
		p.kind, p.ctl = parkControl, v
	case rma:
		p.kind, p.rma = parkRMA, v
	default:
		p.other = s
	}
	return p
}

// try makes one backlog retry of the parked submission.
func (p *parked) try(d *Device) error {
	switch p.kind {
	case parkEager:
		return p.eager.try(d, true)
	case parkControl:
		return p.ctl.try(d, true)
	case parkRMA:
		return p.rma.try(d, true)
	}
	return p.other.try(d, true)
}

// fail reports a fatal error through the parked submission's owner.
func (p *parked) fail(d *Device, err error) {
	switch p.kind {
	case parkEager:
		p.eager.fail(d, err)
	case parkControl:
		p.ctl.fail(d, err)
	case parkRMA:
		p.rma.fail(d, err)
	default:
		p.other.fail(d, err)
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
	var op *sendOp
	if s.comp != nil && (parked || !s.inject) {
		op = d.sendOps.get(d)
		op.comp, op.t0 = s.comp, s.t0
		op.st = base.Status{
			State: base.Done, Rank: s.rank, Tag: int(s.hdr.tag), Buffer: s.buf, Size: n, Ctx: s.ctx,
		}
		ctx = op
	}
	d.crossDelay(s.w)
	err := d.net.PostSend(s.rank, s.rdev, uint32(s.hdr.kind), pkt.Data[:headerSize+n], ctx)
	// The fabric copies synchronously, so the packet recycles
	// immediately whether the post succeeded or failed. A failed post
	// queues no completion, so its sendOp comes back here too.
	s.w.Put(pkt)
	if err != nil && op != nil {
		op.recycle()
	}
	return err
}

func (s eagerSend) fail(d *Device, err error) {
	d.failSend(s.comp, base.Status{State: base.Done, Rank: s.rank, Tag: int(s.hdr.tag), Ctx: s.ctx}, err)
}

// control is a header-only protocol message (RTS, RTR, or a retransmit of
// one). Its failure belongs to the rendezvous handshake owner, held under
// tok: whoever wins the token's releaseIf owns the error fire. A parked
// control can outlive its rendezvous; the token's generation then fails
// the compare, so a recycled owner is never touched. A nil owner drops
// the failure (the dead-rank sweep reports it).
type control struct {
	w     *packet.Worker
	dst   int
	rdev  int
	hdr   header
	tok   uint32
	owner handshake
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
	if c.owner != nil && d.tokens.releaseIf(c.tok, c.owner) {
		c.owner.fail(d, err)
	}
}

// rma is a one-sided transfer: a write of buf (a put, or a rendezvous
// payload) with an optional immediate, or a read into buf. ctx is the
// network completion context, a *sendOp or nil; the rma owns it until the
// network takes it, and returns it when the transfer fails.
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
	if op, ok := r.ctx.(*sendOp); ok {
		d.failSend(op.comp, op.st, err)
		op.recycle()
		return
	}
	d.failSend(nil, base.Status{}, err)
}

// submitRMA is submit for a posted put or get: an rma that was neither
// sent nor parked returns its completion record before the caller
// returns the error or the Retry.
func submitRMA(d *Device, r rma, park bool) (base.Status, error) {
	st, err := submit(d, r, park)
	if err != nil || st.State == base.Retry {
		if op, ok := r.ctx.(*sendOp); ok {
			op.recycle()
		}
	}
	return st, err
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
