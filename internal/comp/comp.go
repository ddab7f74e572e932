// Package comp implements LCI's built-in completion objects (§4.2.6,
// §5.1.4): counter, synchronizer, handler, completion queue (two MPMC
// implementations), and the completion graph. All are atomic-based; none
// ever blocks the signaling thread.
package comp

import (
	"errors"
	"sync/atomic"

	"lci/internal/base"
	"lci/internal/mpmc"
)

// ErrAborted is delivered to a graph node's completion when an upstream
// node failed: the node's operation was never started, and its dependents
// are aborted in turn. It lets Wait-style loops over a failed graph
// terminate with a typed error instead of wedging.
var ErrAborted = errors.New("comp: aborted by upstream failure")

// Counter records the number of times it has been signaled. It is an
// atomic integer (§5.1.4). It additionally latches the first error status
// it sees, so a thread spinning on Load can check Err after the count
// arrives.
type Counter struct {
	n   atomic.Int64
	err atomic.Pointer[error]
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Signal increments the counter; the first error status is latched, the
// rest of the status is discarded. The no-error check is a single
// integer compare (Status.Failed), so latching costs nothing on the
// success path.
func (c *Counter) Signal(st base.Status) {
	if st.Failed() {
		e := st.Err()
		c.err.CompareAndSwap(nil, &e)
	}
	c.n.Add(1)
}

// Load returns the number of signals received so far.
func (c *Counter) Load() int64 { return c.n.Load() }

// Err returns the first error delivered to the counter, or nil.
func (c *Counter) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Reset sets the counter back to zero and returns the previous value.
// The latched error, if any, is cleared.
func (c *Counter) Reset() int64 {
	c.err.Store(nil)
	return c.n.Swap(0)
}

var _ base.Comp = (*Counter)(nil)

// Handler invokes a function on every signal; it is "essentially a
// function pointer" (§5.1.4). The function must be safe for concurrent
// invocation.
//
// As a local completion object a Handler runs wherever Signal is called —
// usually inside the progress engine, so the handler-context rules apply:
// don't block, don't spin on progress, post follow-up operations with the
// no-retry/backlog option. For *remote* targets, prefer registering the
// function itself (core Runtime.RegisterHandler / the root package's
// unified RegisterRComp): that routes through the remote-handler table,
// which dispatches without boxing a completion object and delivers eager
// payloads zero-copy with the buffer valid only during the call, whereas a
// Handler registered as a completion object is signaled with a private
// copy it may retain.
type Handler func(base.Status)

// Signal invokes the handler function.
func (h Handler) Signal(s base.Status) { h(s) }

var _ base.Comp = Handler(nil)

// Sync is the synchronizer: similar to an MPI request but able to accept
// multiple signals before becoming ready. Expecting one signal it is an
// atomic flag; expecting n it is a fixed-size status array guarded by two
// atomic counters (§5.1.4).
type Sync struct {
	expected int64
	got      atomic.Int64 // claimed slots
	ready    atomic.Int64 // published slots
	statuses []base.Status
}

// NewSync returns a synchronizer expecting n signals (n >= 1).
func NewSync(n int) *Sync {
	if n < 1 {
		panic("comp: NewSync needs n >= 1")
	}
	return &Sync{expected: int64(n), statuses: make([]base.Status, n)}
}

// Signal records one completion. Signaling more than n times panics: it
// means the program wired one synchronizer to too many operations.
func (s *Sync) Signal(st base.Status) {
	i := s.got.Add(1) - 1
	if i >= s.expected {
		panic("comp: Sync signaled more times than expected")
	}
	s.statuses[i] = st
	s.ready.Add(1)
}

// Test reports whether all expected signals have arrived.
func (s *Sync) Test() bool { return s.ready.Load() == s.expected }

// Statuses returns the collected statuses. Valid only after Test reports
// true.
func (s *Sync) Statuses() []base.Status { return s.statuses[:s.ready.Load()] }

// Err returns the first error among the statuses collected so far. Like
// Statuses, the answer is final only after Test reports true.
func (s *Sync) Err() error {
	for _, st := range s.Statuses() {
		if st.Failed() {
			return st.Err()
		}
	}
	return nil
}

// Reset rearms the synchronizer for reuse. The caller must guarantee no
// in-flight signals.
func (s *Sync) Reset() {
	s.got.Store(0)
	s.ready.Store(0)
}

var _ base.Comp = (*Sync)(nil)

// Queue is the completion queue. The default implementation is the
// LCRQ-style unbounded MPMC queue; NewFixedQueue gives the bounded
// fetch-and-add array variant (§5.1.4).
type Queue struct {
	// mayHave is a conservative non-emptiness hint: raised after every
	// Signal, cleared by a failed Pop. Progress loops pop far more often
	// than signals arrive, and the hint turns an empty Pop into a single
	// load of this struct's first cache line instead of a walk of the
	// queue's internals. Signal stores it only when it reads false, so a
	// steady stream of signals to a busy queue leaves the line shared
	// instead of writing it on every completion.
	mayHave atomic.Bool
	q       *mpmc.Queue[base.Status] // nil when r is used
	r       *mpmc.Ring[base.Status]
	// dropped counts signals lost to a full fixed-size queue; the
	// unbounded variant never drops.
	dropped atomic.Int64
}

// NewQueue returns an unbounded (LCRQ-style) completion queue.
func NewQueue() *Queue { return &Queue{q: mpmc.NewQueue[base.Status](0)} }

// NewFixedQueue returns a bounded fetch-and-add-array completion queue
// with the given capacity.
func NewFixedQueue(capacity int) *Queue {
	return &Queue{r: mpmc.NewRing[base.Status](capacity)}
}

// Signal enqueues the status. For the fixed variant, a signal arriving at
// a full queue is counted in Dropped — sizing the queue to the number of
// in-flight operations is the application's contract, matching LCI.
func (q *Queue) Signal(s base.Status) {
	if q.q != nil {
		q.q.Enqueue(s)
	} else if !q.r.Enqueue(s) {
		q.dropped.Add(1)
		return
	}
	if !q.mayHave.Load() {
		q.mayHave.Store(true)
	}
}

// Pop removes the oldest completion, reporting false when the queue is
// empty (the cq_pop "retry" case in the paper's Listing 2).
//
// The hint protocol never loses an element. Every Signal loads the hint
// AFTER its enqueue and stores true if it read false; Pop re-checks the
// queue AFTER storing false. If the producer's load read false, its store
// of true comes after that false and overwrites it. If the load read
// true, then any false it missed was stored after the load, so after the
// enqueue (the atomics are sequentially consistent), and the re-check
// that follows that store sees the element.
func (q *Queue) Pop() (base.Status, bool) {
	if !q.mayHave.Load() {
		return base.Status{}, false
	}
	if st, ok := q.pop(); ok {
		return st, true
	}
	q.mayHave.Store(false)
	if st, ok := q.pop(); ok {
		// The queue was not empty after all; keep the hint conservative.
		q.mayHave.Store(true)
		return st, true
	}
	return base.Status{}, false
}

func (q *Queue) pop() (base.Status, bool) {
	if q.q != nil {
		return q.q.Dequeue()
	}
	return q.r.Dequeue()
}

// Len estimates the queue length.
func (q *Queue) Len() int {
	if q.q != nil {
		return q.q.Len()
	}
	return q.r.Len()
}

// Dropped reports signals rejected by a full fixed-size queue.
func (q *Queue) Dropped() int64 { return q.dropped.Load() }

var _ base.Comp = (*Queue)(nil)
