package mpibase_test

import (
	"bytes"
	"sync"
	"testing"

	"lci/internal/mpibase"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

func newPair(t *testing.T, vcis int) (*mpibase.MPI, *mpibase.MPI) {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: 2})
	cfg := mpibase.Config{NumVCIs: vcis, AssertNoAnyTag: vcis > 1}
	ms := make([]*mpibase.MPI, 2)
	for r := 0; r < 2; r++ {
		ms[r] = mpibase.New(nic.NewDomain(fab, r, nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1}), cfg)
	}
	return ms[0], ms[1]
}

func TestIsendIrecvEager(t *testing.T) {
	m0, m1 := newPair(t, 1)
	msg := []byte("eager-payload")
	buf := make([]byte, 64)
	rreq, err := m1.Irecv(buf, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	sreq := m0.Isend(msg, 1, 5, 0)
	m0.Wait(sreq)
	for !rreq.Done() {
		m1.Progress()
	}
	if rreq.Source != 0 || rreq.Tag != 5 || rreq.Len != len(msg) {
		t.Fatalf("recv status %+v", rreq)
	}
	if !bytes.Equal(buf[:rreq.Len], msg) {
		t.Fatalf("payload %q", buf[:rreq.Len])
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	m0, m1 := newPair(t, 1)
	msg := make([]byte, 100_000)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	buf := make([]byte, len(msg))
	rreq, err := m1.Irecv(buf, 0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	sreq := m0.Isend(msg, 1, 9, 0)
	for !rreq.Done() || !sreq.Done() {
		m0.Progress()
		m1.Progress()
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("rendezvous payload corrupted")
	}
}

func TestUnexpectedMessageThenRecv(t *testing.T) {
	m0, m1 := newPair(t, 1)
	sreq := m0.Isend([]byte("early"), 1, 3, 0)
	m0.Wait(sreq)
	// Let it arrive unexpected.
	for i := 0; i < 50; i++ {
		m1.Progress()
	}
	buf := make([]byte, 16)
	rreq, err := m1.Irecv(buf, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for !rreq.Done() {
		m1.Progress()
	}
	if string(buf[:rreq.Len]) != "early" {
		t.Fatalf("got %q", buf[:rreq.Len])
	}
}

func TestWildcardsAnySourceAnyTag(t *testing.T) {
	m0, m1 := newPair(t, 1)
	buf := make([]byte, 16)
	rreq, err := m1.Irecv(buf, mpibase.AnySource, mpibase.AnyTag, 0)
	if err != nil {
		t.Fatal(err)
	}
	m0.Wait(m0.Isend([]byte("wild"), 1, 123, 0))
	for !rreq.Done() {
		m1.Progress()
	}
	if rreq.Source != 0 || rreq.Tag != 123 {
		t.Fatalf("wildcard status %+v", rreq)
	}
}

// TestInOrderMatching: two same-tag messages must match posted receives
// in send order (MPI non-overtaking for a single pair).
func TestInOrderMatching(t *testing.T) {
	m0, m1 := newPair(t, 1)
	b1, b2 := make([]byte, 8), make([]byte, 8)
	r1, _ := m1.Irecv(b1, 0, 1, 0)
	r2, _ := m1.Irecv(b2, 0, 1, 0)
	m0.Wait(m0.Isend([]byte("first"), 1, 1, 0))
	m0.Wait(m0.Isend([]byte("second"), 1, 1, 0))
	for !r1.Done() || !r2.Done() {
		m1.Progress()
	}
	if string(b1[:r1.Len]) != "first" || string(b2[:r2.Len]) != "second" {
		t.Fatalf("order broken: %q, %q", b1[:r1.Len], b2[:r2.Len])
	}
}

func TestVCIRoutingAndWildcardRestriction(t *testing.T) {
	m0, m1 := newPair(t, 4)
	if m0.NumVCIs() != 4 {
		t.Fatalf("NumVCIs = %d", m0.NumVCIs())
	}
	// AnyTag cannot be routed with multiple VCIs.
	if _, err := m1.Irecv(make([]byte, 8), 0, mpibase.AnyTag, 0); err == nil {
		t.Fatal("AnyTag receive accepted with 4 VCIs")
	}
	// Distinct comm/tag pairs still deliver.
	buf := make([]byte, 8)
	rreq, err := m1.Irecv(buf, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	m0.Wait(m0.Isend([]byte("vci"), 1, 2, 3))
	for !rreq.Done() {
		m1.ProgressVCI(3, 2)
	}
	if string(buf[:rreq.Len]) != "vci" {
		t.Fatalf("got %q", buf[:rreq.Len])
	}
}

func TestBarrier(t *testing.T) {
	m0, m1 := newPair(t, 1)
	var wg sync.WaitGroup
	for _, m := range []*mpibase.MPI{m0, m1} {
		wg.Add(1)
		go func(m *mpibase.MPI) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				m.Barrier(0)
			}
		}(m)
	}
	wg.Wait()
}

func TestConcurrentThreadsSharedVCI(t *testing.T) {
	m0, m1 := newPair(t, 1)
	const threads = 4
	const iters = 200
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < iters; i++ {
				rreq, err := m1.Irecv(buf, 0, tid, 0)
				if err != nil {
					t.Error(err)
					return
				}
				m0.Wait(m0.Isend([]byte{byte(tid)}, 1, tid, 0))
				for !rreq.Done() {
					m1.Progress()
				}
				if buf[0] != byte(tid) {
					t.Errorf("thread %d got %d", tid, buf[0])
					return
				}
			}
		}(tid)
	}
	wg.Wait()
}
