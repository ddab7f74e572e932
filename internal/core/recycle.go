package core

import "lci/internal/spin"

// Operation records — recvOp, sendOp, sendState and rdvState — are
// recycled through per-device free lists, so the two-sided and rendezvous
// paths allocate nothing per message once each list has grown to its
// device's high-water mark. A record always goes back to the list of the
// device that made it (its home), wherever it is returned from, so each
// device's count of records out settles at zero when the device is quiet.
// DESIGN.md §9 tabulates who takes and returns each record and how stale
// holders are caught.

// record is the bookkeeping every recycled record embeds.
type record struct {
	home *Device
	out  bool // handed out and not yet returned
}

func (r *record) rec() *record { return r }

// freeList is a spinlocked stack of records of one type. Get and put hold
// the lock for a slice push or pop; the records themselves are zeroed on
// put, so a pooled record keeps no user buffer or completion alive.
type freeList[T any, P interface {
	*T
	rec() *record
}] struct {
	mu   spin.Mutex
	free []P
	out  int64 // records handed out and not yet returned
}

// get hands out a record of home's list, making one when the list is
// empty.
func (l *freeList[T, P]) get(home *Device) P {
	var p P
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		p = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	}
	l.out++
	l.mu.Unlock()
	if p == nil {
		p = new(T)
		p.rec().home = home
	}
	p.rec().out = true
	return p
}

// put zeroes p and returns it to the list. Returning a record twice is a
// lifetime bug that would hand one record to two operations; it panics.
func (l *freeList[T, P]) put(p P) {
	r := p.rec()
	if !r.out {
		panic("lci: operation record returned twice")
	}
	home := r.home
	*p = *new(T)
	p.rec().home = home
	l.mu.Lock()
	l.free = append(l.free, p)
	l.out--
	l.mu.Unlock()
}

// outstanding reports how many records l has handed out and not got back.
func (l *freeList[T, P]) outstanding() int64 {
	l.mu.Lock()
	n := l.out
	l.mu.Unlock()
	return n
}

func (op *recvOp) recycle()    { op.home.recvOps.put(op) }
func (ss *sendState) recycle() { ss.home.sendStates.put(ss) }
func (st *rdvState) recycle()  { st.home.rdvStates.put(st) }

// recycle returns op to its list — or, when op is the payload write's
// context embedded in a sendState, returns that sendState.
func (op *sendOp) recycle() {
	if op.ss != nil {
		op.ss.recycle()
		return
	}
	op.home.sendOps.put(op)
}

// recordsOut counts the operation records a device has handed out and
// not got back, by type. Every field reads zero once the device is quiet:
// no receive parked, no send or rendezvous in flight.
type recordsOut struct {
	RecvOps, SendOps, SendStates, RdvStates int64
}

func (d *Device) recordsOut() recordsOut {
	return recordsOut{
		RecvOps:    d.recvOps.outstanding(),
		SendOps:    d.sendOps.outstanding(),
		SendStates: d.sendStates.outstanding(),
		RdvStates:  d.rdvStates.outstanding(),
	}
}
