package gasnetsim_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"lci/internal/gasnetsim"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

func newPair(t *testing.T) (*gasnetsim.GASNet, *gasnetsim.GASNet) {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: 2})
	gs := make([]*gasnetsim.GASNet, 2)
	for r := 0; r < 2; r++ {
		gs[r] = gasnetsim.New(nic.NewDomain(fab, r, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1}), gasnetsim.Config{})
	}
	return gs[0], gs[1]
}

func TestRequestMediumDelivers(t *testing.T) {
	g0, g1 := newPair(t)
	var gotArg atomic.Uint32
	var gotLen atomic.Int32
	var gotSrc atomic.Int32
	h1 := g1.RegisterHandler(func(src int, arg uint32, payload []byte) {
		gotSrc.Store(int32(src))
		gotArg.Store(arg)
		gotLen.Store(int32(len(payload)))
	})
	// Handlers must be registered symmetrically.
	g0.RegisterHandler(func(int, uint32, []byte) {})
	g0.RequestMedium(1, h1, 42, []byte("medium-payload"))
	for gotLen.Load() == 0 {
		g1.Poll()
	}
	if gotSrc.Load() != 0 || gotArg.Load() != 42 || gotLen.Load() != 14 {
		t.Fatalf("handler got src=%d arg=%d len=%d", gotSrc.Load(), gotArg.Load(), gotLen.Load())
	}
}

func TestOversizePayloadPanics(t *testing.T) {
	g0, _ := newPair(t)
	h := g0.RegisterHandler(func(int, uint32, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g0.RequestMedium(1, h, 0, make([]byte, g0.MaxMedium()+1))
}

func TestManyThreadsSharedEndpoint(t *testing.T) {
	g0, g1 := newPair(t)
	var received atomic.Int64
	h := g1.RegisterHandler(func(int, uint32, []byte) { received.Add(1) })
	g0.RegisterHandler(func(int, uint32, []byte) {})
	const threads, per = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := make([]byte, 32)
			for k := 0; k < per; k++ {
				g0.RequestMedium(1, h, 0, msg)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for received.Load() < threads*per {
			g1.Poll()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if received.Load() != threads*per {
		t.Fatalf("received %d of %d", received.Load(), threads*per)
	}
}
