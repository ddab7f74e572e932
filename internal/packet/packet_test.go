package packet_test

import (
	"sync"
	"testing"

	"lci/internal/packet"
)

func TestGetPutLocal(t *testing.T) {
	p := packet.NewPool(1024, 8)
	w := p.RegisterWorker()
	pkt := w.Get()
	if pkt == nil {
		t.Fatal("Get on full deque returned nil")
	}
	if len(pkt.Data) != 1024 {
		t.Fatalf("packet size %d", len(pkt.Data))
	}
	w.Put(pkt)
	if p.Available() != 8 {
		t.Fatalf("Available = %d, want 8", p.Available())
	}
}

func TestExhaustionReturnsNil(t *testing.T) {
	p := packet.NewPool(64, 4)
	w := p.RegisterWorker()
	var got []*packet.Packet
	for i := 0; i < 4; i++ {
		pkt := w.Get()
		if pkt == nil {
			t.Fatalf("Get %d failed early", i)
		}
		got = append(got, pkt)
	}
	if w.Get() != nil {
		t.Fatal("Get on exhausted single-worker pool should return nil (retry path)")
	}
	for _, pkt := range got {
		w.Put(pkt)
	}
}

func TestStealingFromVictim(t *testing.T) {
	p := packet.NewPool(64, 16)
	w1 := p.RegisterWorker()
	w2 := p.RegisterWorker()
	// Drain w1's own deque into a stash.
	var stash []*packet.Packet
	for i := 0; i < 16; i++ {
		stash = append(stash, w1.Get())
	}
	// w1 must now steal from w2.
	pkt := w1.Get()
	if pkt == nil {
		t.Fatal("steal failed with a full victim")
	}
	w1.Put(pkt)
	for _, s := range stash {
		w1.Put(s)
	}
	_ = w2
	if p.Available() != 32 {
		t.Fatalf("Available = %d, want 32", p.Available())
	}
}

func TestPutWrongPoolPanics(t *testing.T) {
	p1 := packet.NewPool(64, 2)
	p2 := packet.NewPool(64, 2)
	w1, w2 := p1.RegisterWorker(), p2.RegisterWorker()
	pkt := w1.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w2.Put(pkt)
}

func TestConcurrentChurnNoLoss(t *testing.T) {
	p := packet.NewPool(64, 32)
	const workers = 8
	ws := make([]*packet.Worker, workers)
	for i := range ws {
		ws[i] = p.RegisterWorker()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w *packet.Worker) {
			defer wg.Done()
			held := make([]*packet.Packet, 0, 8)
			for it := 0; it < 20000; it++ {
				if it%3 == 2 && len(held) > 0 {
					w.Put(held[len(held)-1])
					held = held[:len(held)-1]
					continue
				}
				if pkt := w.Get(); pkt != nil {
					held = append(held, pkt)
				}
			}
			for _, pkt := range held {
				w.Put(pkt)
			}
		}(ws[i])
	}
	wg.Wait()
	if got := p.Available(); got != workers*32 {
		t.Fatalf("Available = %d, want %d (packets lost or duplicated)", got, workers*32)
	}
}

// TestCloseRecyclesSlabs: a closed pool hands out nothing more, and a pool
// created after it reuses its packet memory instead of allocating fresh.
func TestCloseRecyclesSlabs(t *testing.T) {
	const size, n = 512, 16
	reused := false
	// The slab cache is a sync.Pool, which may drop an entry (the race
	// detector drops some on purpose), so give reuse a few chances.
	for attempt := 0; attempt < 8 && !reused; attempt++ {
		old := packet.NewPool(size, n)
		w := old.RegisterWorker()
		pkt := w.Get()
		first := &pkt.Data[0]
		w.Put(pkt)
		old.Close()
		if got := w.Get(); got != nil {
			t.Fatal("Get on a closed pool returned a packet")
		}
		if a := old.Available(); a != 0 {
			t.Fatalf("closed pool has %d packets available", a)
		}
		fresh := packet.NewPool(size, n).RegisterWorker()
		for i := 0; i < n; i++ {
			if p := fresh.Get(); p != nil && &p.Data[0] == first {
				reused = true
			}
		}
	}
	if !reused {
		t.Fatal("no pool created after a Close reused the closed pool's slab")
	}
}
