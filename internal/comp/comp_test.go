package comp_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci/internal/base"
	"lci/internal/comp"
)

func TestCounterConcurrent(t *testing.T) {
	c := comp.NewCounter()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Signal(base.Status{})
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if c.Reset() != 8000 || c.Load() != 0 {
		t.Fatal("Reset misbehaved")
	}
}

// TestCounterLatchesFirstError: error statuses still count, the first
// error is retained across later successes, and Reset clears it.
func TestCounterLatchesFirstError(t *testing.T) {
	c := comp.NewCounter()
	c.Signal(base.Status{})
	if c.Err() != nil {
		t.Fatalf("clean counter has Err %v", c.Err())
	}
	first := errors.New("first failure")
	c.Signal(base.Status{}.WithErr(first))
	c.Signal(base.Status{}.WithErr(errors.New("second failure")))
	c.Signal(base.Status{})
	if c.Load() != 4 {
		t.Fatalf("count = %d, want 4", c.Load())
	}
	if !errors.Is(c.Err(), first) {
		t.Fatalf("Err = %v, want the first failure", c.Err())
	}
	c.Reset()
	if c.Err() != nil || c.Load() != 0 {
		t.Fatal("Reset did not clear the latched error")
	}
}

// TestSyncErr: Sync surfaces the first error among collected statuses.
func TestSyncErr(t *testing.T) {
	s := comp.NewSync(2)
	boom := errors.New("boom")
	s.Signal(base.Status{})
	s.Signal(base.Status{}.WithErr(boom))
	if !s.Test() {
		t.Fatal("sync not ready")
	}
	if !errors.Is(s.Err(), boom) {
		t.Fatalf("Err = %v, want boom", s.Err())
	}
}

// TestQueueCarriesErr: error statuses flow through the completion queue
// untouched.
func TestQueueCarriesErr(t *testing.T) {
	q := comp.NewQueue()
	boom := errors.New("boom")
	q.Signal(base.Status{Tag: 7}.WithErr(boom))
	st, ok := q.Pop()
	if !ok || st.Tag != 7 || !errors.Is(st.Err(), boom) {
		t.Fatalf("Pop = %+v, %v", st, ok)
	}
}

func TestHandlerInvokes(t *testing.T) {
	var got base.Status
	h := comp.Handler(func(s base.Status) { got = s })
	h.Signal(base.Status{Rank: 7, Tag: 9})
	if got.Rank != 7 || got.Tag != 9 {
		t.Fatalf("handler got %+v", got)
	}
}

func TestSyncExpectMultiple(t *testing.T) {
	s := comp.NewSync(3)
	if s.Test() {
		t.Fatal("fresh Sync ready")
	}
	s.Signal(base.Status{Tag: 1})
	s.Signal(base.Status{Tag: 2})
	if s.Test() {
		t.Fatal("ready after 2 of 3")
	}
	s.Signal(base.Status{Tag: 3})
	if !s.Test() {
		t.Fatal("not ready after 3 of 3")
	}
	if len(s.Statuses()) != 3 {
		t.Fatalf("statuses = %d", len(s.Statuses()))
	}
	s.Reset()
	if s.Test() {
		t.Fatal("ready after Reset")
	}
}

func TestSyncOverSignalPanics(t *testing.T) {
	s := comp.NewSync(1)
	s.Signal(base.Status{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Signal(base.Status{})
}

func TestQueueUnboundedOrderAndLen(t *testing.T) {
	q := comp.NewQueue()
	for i := 0; i < 100; i++ {
		q.Signal(base.Status{Tag: i})
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		st, ok := q.Pop()
		if !ok || st.Tag != i {
			t.Fatalf("Pop %d = %v,%v", i, st.Tag, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
}

func TestFixedQueueDropsWhenFull(t *testing.T) {
	q := comp.NewFixedQueue(4)
	for i := 0; i < 6; i++ {
		q.Signal(base.Status{Tag: i})
	}
	if q.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", q.Dropped())
	}
}

// TestFixedQueueNoFalseFull: a nearly empty fixed queue must never drop
// a signal. Eight goroutines on two Ps each signal and then spin until
// they pop an element, so the queue holds at most eight. With more
// goroutines than Ps, a consumer is often preempted between claiming a
// cell and releasing it for longer than the ring takes to lap; the
// producer that reaches that cell must wait for it, not report the ring
// full — a drop loses the completion and leaves one goroutine spinning
// forever, so the test gives up at the first drop.
func TestFixedQueueNoFalseFull(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const workers, ops = 8, 200_000
	q := comp.NewFixedQueue(1 << 16)
	deadline := time.Now().Add(60 * time.Second)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				q.Signal(base.Status{Tag: i})
				for n := 1; ; n++ {
					if _, ok := q.Pop(); ok {
						break
					}
					if n%1024 == 0 && (stop.Load() || q.Dropped() != 0 || time.Now().After(deadline)) {
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if stop.Load() || q.Dropped() != 0 || q.Len() != 0 {
		t.Fatalf("fixed queue lost completions: Dropped=%d Len=%d (timed out or gave up: %v)", q.Dropped(), q.Len(), stop.Load())
	}
}

func TestGraphLinearChain(t *testing.T) {
	g := comp.NewGraph()
	var order []int
	n1 := g.AddFunc(func() { order = append(order, 1) })
	n2 := g.AddFunc(func() { order = append(order, 2) })
	n3 := g.AddFunc(func() { order = append(order, 3) })
	g.AddEdge(n1, n2)
	g.AddEdge(n2, n3)
	g.Start()
	if !g.Test() {
		t.Fatal("chain incomplete")
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestGraphDiamondAndOpNodes(t *testing.T) {
	g := comp.NewGraph()
	var sum int
	root := g.AddFunc(func() { sum += 1 })
	var leftComp base.Comp
	left := g.AddOp(func(c base.Comp) base.Status {
		leftComp = c // completes later, via Signal
		return base.Status{State: base.Posted}
	})
	right := g.AddFunc(func() { sum += 10 })
	join := g.AddFunc(func() { sum += 100 })
	g.AddEdge(root, left)
	g.AddEdge(root, right)
	g.AddEdge(left, join)
	g.AddEdge(right, join)
	g.Start()
	if g.Test() {
		t.Fatal("graph complete before async op signaled")
	}
	leftComp.Signal(base.Status{})
	if !g.Test() {
		t.Fatal("graph incomplete after signal")
	}
	if sum != 111 {
		t.Fatalf("sum = %d, want 111", sum)
	}
}

func TestGraphRetryRearm(t *testing.T) {
	g := comp.NewGraph()
	tries := 0
	g.AddOp(func(c base.Comp) base.Status {
		tries++
		if tries < 3 {
			return base.Status{State: base.Retry}
		}
		return base.Status{State: base.Done}
	})
	g.Start()
	for i := 0; i < 5 && !g.Test(); i++ {
	}
	if !g.Test() {
		t.Fatal("retry op never completed")
	}
	if tries != 3 {
		t.Fatalf("tries = %d, want 3", tries)
	}
}

func TestGraphMutationAfterStartPanics(t *testing.T) {
	g := comp.NewGraph()
	g.AddFunc(nil)
	g.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddFunc(nil)
}
