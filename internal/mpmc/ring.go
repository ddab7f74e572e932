package mpmc

import (
	"runtime"
	"sync/atomic"

	"lci/internal/spin"
)

// closedBit marks a sealed ring: once set in the enqueue counter no further
// enqueue can claim a slot (the claim CAS fails because the counter value
// changed). This is how LCRQ "closes" a CRQ segment.
const closedBit = uint64(1) << 63

type ringCell[T any] struct {
	seq atomic.Uint64
	val T
}

// Ring is a bounded MPMC queue over a fixed-size array, driven by
// fetch-and-add-style claim counters with per-cell sequence numbers. It is
// the paper's "hand-written Fetch-And-Add-based fixed sized array"
// completion-queue implementation (§5.1.4) and also serves as a CRQ segment
// for Queue and as the NIC receive queue in the network simulator (where a
// full ring is exactly a full hardware queue and yields a retry).
//
// Enqueue returns false when the ring is full or sealed; Dequeue returns
// false when the ring is empty. Dequeue never blocks; Enqueue waits only
// for a consumer that has claimed the target cell to release it.
type Ring[T any] struct {
	_     spin.Pad
	enq   atomic.Uint64
	_     spin.Pad
	deq   atomic.Uint64
	_     spin.Pad
	mask  uint64
	cells []ringCell[T]
}

// NewRing returns a ring with capacity rounded up to the next power of two
// (minimum 2).
func NewRing[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{mask: uint64(n - 1), cells: make([]ringCell[T], n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.cells) }

// Enqueue adds v. It reports false if the ring is full or sealed.
func (r *Ring[T]) Enqueue(v T) bool {
	for {
		pos := r.enq.Load()
		if pos&closedBit != 0 {
			return false
		}
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.val = v
				c.seq.Store(pos + 1)
				return true
			}
		case d < 0:
			// The cell still holds the previous lap's element. That means
			// full only when the ring really is occupied; otherwise that
			// lap's consumer has won its deq claim but not yet released
			// the cell — a wait bounded by its two stores, so yield and
			// retry rather than report a false full.
			if int64(pos-r.deq.Load()) >= int64(len(r.cells)) {
				return false
			}
			runtime.Gosched()
		default:
			// another producer already claimed this cell; reload
		}
	}
}

// Dequeue removes and returns the oldest element, reporting false if the
// ring is (momentarily) empty.
func (r *Ring[T]) Dequeue() (T, bool) {
	var zero T
	for {
		pos := r.deq.Load()
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos+1); {
		case d == 0:
			if r.deq.CompareAndSwap(pos, pos+1) {
				v := c.val
				c.val = zero
				c.seq.Store(pos + r.mask + 1)
				return v, true
			}
		case d < 0:
			return zero, false // empty
		default:
			// another consumer already took this cell; reload
		}
	}
}

// Seal closes the ring: all future Enqueue calls fail. In-flight enqueues
// that already claimed a slot will still publish; use Drained to wait for
// them. (CAS loop rather than atomic Or: the Or intrinsic miscompiles on
// go1.24.0 linux/amd64; see kmer/bloom.go.)
func (r *Ring[T]) Seal() {
	for {
		old := r.enq.Load()
		if old&closedBit != 0 {
			return
		}
		if r.enq.CompareAndSwap(old, old|closedBit) {
			return
		}
	}
}

// Sealed reports whether the ring has been sealed.
func (r *Ring[T]) Sealed() bool { return r.enq.Load()&closedBit != 0 }

// Drained reports whether every claimed slot has been consumed. Only
// meaningful after Seal.
func (r *Ring[T]) Drained() bool {
	return r.enq.Load()&^closedBit == r.deq.Load()
}

// Len returns an instantaneous estimate of the number of elements.
func (r *Ring[T]) Len() int {
	e := r.enq.Load() &^ closedBit
	d := r.deq.Load()
	if e < d {
		return 0
	}
	return int(e - d)
}
