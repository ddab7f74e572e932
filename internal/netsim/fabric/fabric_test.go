package fabric_test

import (
	"bytes"
	"errors"
	"testing"

	"lci/internal/fault"
	"lci/internal/netsim/fabric"
)

func newPair(t *testing.T) (*fabric.Fabric, *fabric.Endpoint, *fabric.Endpoint) {
	t.Helper()
	f := fabric.New(fabric.Config{NumRanks: 2, PendingCap: 4})
	e0 := f.NewEndpoint(0)
	e1 := f.NewEndpoint(1)
	return f, e0, e1
}

func TestSendIntoPostedRecv(t *testing.T) {
	f, _, e1 := newPair(t)
	buf := make([]byte, 64)
	e1.PostRecv(buf, "slot")
	if err := f.Send(1, 0, 0, 42, []byte("hello")); err != nil {
		t.Fatalf("Send failed with a posted recv: %v", err)
	}
	var comps [4]fabric.Completion
	n := e1.PollReady(comps[:])
	if n != 1 {
		t.Fatalf("PollReady = %d", n)
	}
	c := comps[0]
	if c.Kind != fabric.RxSend || c.Src != 0 || c.Meta != 42 || c.Len != 5 {
		t.Fatalf("completion %+v", c)
	}
	if string(buf[:5]) != "hello" {
		t.Fatalf("data %q", buf[:5])
	}
}

func TestRNRBufferingPreservesOrderThenBackpressure(t *testing.T) {
	f, _, e1 := newPair(t)
	// No recvs posted: up to PendingCap sends buffer, then refusal.
	for i := 0; i < 4; i++ {
		if err := f.Send(1, 0, 0, uint32(i), []byte{byte(i)}); err != nil {
			t.Fatalf("send %d refused below pending cap: %v", i, err)
		}
	}
	if err := f.Send(1, 0, 0, 99, []byte{9}); !errors.Is(err, fabric.ErrNoSlots) {
		t.Fatalf("send beyond pending cap: err = %v, want ErrNoSlots", err)
	}
	// Posting receives drains the pending queue in order.
	for i := 0; i < 4; i++ {
		e1.PostRecv(make([]byte, 8), i)
	}
	var comps [8]fabric.Completion
	n := e1.PollReady(comps[:])
	if n != 4 {
		t.Fatalf("PollReady = %d", n)
	}
	for i := 0; i < 4; i++ {
		if comps[i].Meta != uint32(i) {
			t.Fatalf("RNR order broken: %v", comps[:n])
		}
	}
}

func TestWriteReadAndImm(t *testing.T) {
	f, e0, e1 := newPair(t)
	region := make([]byte, 128)
	rkey := f.RegisterMem(1, region)
	if err := f.Write(1, 0, 0, rkey, 16, []byte("abc"), 0, false); err != nil {
		t.Fatal(err)
	}
	if string(region[16:19]) != "abc" {
		t.Fatalf("write missed: %q", region[16:19])
	}
	// Write with immediate notifies endpoint 0 of rank 1.
	if err := f.Write(1, 0, 0, rkey, 0, []byte("x"), 777, true); err != nil {
		t.Fatal(err)
	}
	var comps [2]fabric.Completion
	if n := e1.PollReady(comps[:]); n != 1 || comps[0].Kind != fabric.RxWriteImm || comps[0].Imm != 777 {
		t.Fatalf("imm completion: %v", comps[:n])
	}
	// Read back remotely.
	into := make([]byte, 3)
	if err := f.Read(1, rkey, 16, into); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(into, []byte("abc")) {
		t.Fatalf("read = %q", into)
	}
	_ = e0
}

func TestRMABoundsAndUnknownKey(t *testing.T) {
	f, _, _ := newPair(t)
	region := make([]byte, 8)
	rkey := f.RegisterMem(1, region)
	if err := f.Write(1, 0, 0, rkey, 6, []byte("abc"), 0, false); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if err := f.Read(1, rkey, 6, make([]byte, 4)); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if err := f.Write(1, 0, 0, 999999, 0, []byte("a"), 0, false); err == nil {
		t.Fatal("unknown rkey accepted")
	}
	f.DeregisterMem(1, rkey)
	if err := f.Read(1, rkey, 0, make([]byte, 1)); err == nil {
		t.Fatal("read after deregister accepted")
	}
}

func TestEndpointRouting(t *testing.T) {
	f := fabric.New(fabric.Config{NumRanks: 2})
	f.NewEndpoint(0)
	e1a := f.NewEndpoint(1)
	e1b := f.NewEndpoint(1)
	e1a.PostRecv(make([]byte, 8), nil)
	e1b.PostRecv(make([]byte, 8), nil)
	// dstDev 1 must land on endpoint index 1.
	f.Send(1, 1, 0, 5, []byte("z"))
	var comps [2]fabric.Completion
	if n := e1a.PollReady(comps[:]); n != 0 {
		t.Fatal("message landed on wrong endpoint")
	}
	if n := e1b.PollReady(comps[:]); n != 1 {
		t.Fatal("message missing from addressed endpoint")
	}
	// Hints wrap around the endpoint count.
	f.Send(1, 2, 0, 6, []byte("w"))
	if n := e1a.PollReady(comps[:]); n != 1 {
		t.Fatal("wrapped hint missed endpoint 0")
	}
	if got := f.NumEndpoints(1); got != 2 {
		t.Fatalf("NumEndpoints = %d", got)
	}
}

func TestStatsCounters(t *testing.T) {
	f, _, e1 := newPair(t)
	e1.PostRecv(make([]byte, 8), nil)
	f.Send(1, 0, 0, 0, []byte("abcd"))
	st := e1.Stats()
	if st.Msgs != 1 || st.Bytes != 4 || st.Ready != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestInjectorOnFabric covers the fabric-side fault hooks: drop (send
// succeeds, nothing delivered), duplicate (two completions), dead rank
// (typed refusal on sends and RMA).
func TestInjectorOnFabric(t *testing.T) {
	f, _, e1 := newPair(t)
	inj := fault.New(123, 2)
	inj.AddEvent(fault.Event{Src: -1, Dst: -1, N: 1, Action: fault.ActDrop})
	f.SetInjector(inj)
	if f.Injector() != inj {
		t.Fatal("Injector accessor lost the installed injector")
	}

	e1.PostRecv(make([]byte, 8), nil)
	e1.PostRecv(make([]byte, 8), nil)
	if err := f.Send(1, 0, 0, 1, []byte("dropme")); err != nil {
		t.Fatalf("dropped send surfaced an error: %v", err)
	}
	var comps [4]fabric.Completion
	if n := e1.PollReady(comps[:]); n != 0 {
		t.Fatalf("dropped send delivered %d completions", n)
	}

	// Duplicate: p=1 rule delivers every send twice.
	f.SetInjector(func() *fault.Injector {
		i2 := fault.New(5, 2)
		i2.SetRule(0, 1, fault.Rule{DupP: 1.0})
		return i2
	}())
	if err := f.Send(1, 0, 0, 2, []byte("twice")); err != nil {
		t.Fatal(err)
	}
	if n := e1.PollReady(comps[:]); n != 2 {
		t.Fatalf("duplicated send delivered %d completions, want 2", n)
	}

	// Dead rank: typed refusal on header sends and RMA legs.
	i3 := fault.New(9, 2)
	i3.KillRank(1)
	f.SetInjector(i3)
	if err := f.Send(1, 0, 0, 3, []byte("x")); !errors.Is(err, fault.ErrPeerDead) {
		t.Fatalf("send to dead rank: err = %v, want ErrPeerDead", err)
	}
	region := make([]byte, 8)
	rkey := f.RegisterMem(1, region)
	if err := f.Write(1, 0, 0, rkey, 0, []byte("a"), 0, false); !errors.Is(err, fault.ErrPeerDead) {
		t.Fatalf("write to dead rank: err = %v, want ErrPeerDead", err)
	}
	if err := f.Read(1, rkey, 0, make([]byte, 1)); !errors.Is(err, fault.ErrPeerDead) {
		t.Fatalf("read from dead rank: err = %v, want ErrPeerDead", err)
	}
}

// TestEndpointCloseDropsDeliveries: once an endpoint is closed, neither a
// send nor a write notification reaches it — the receive slot posted
// before Close is never written, nothing becomes ready, and the sender
// sees the message accepted, as on a peer that tore its queue pair down.
func TestEndpointCloseDropsDeliveries(t *testing.T) {
	f, _, e1 := newPair(t)
	posted := make([]byte, 8)
	e1.PostRecv(posted, "slot")
	if err := f.Send(1, 0, 0, 1, []byte("queued")); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if n := e1.NReady(); n != 0 {
		t.Fatalf("%d events ready after Close, want the queued one dropped", n)
	}
	copy(posted, "untouch!")
	e1.PostRecv(make([]byte, 8), "late slot")
	if err := f.Send(1, 0, 0, 2, []byte("dropped!")); err != nil {
		t.Fatalf("send to a closed endpoint: %v", err)
	}
	region := make([]byte, 8)
	rkey := f.RegisterMem(1, region)
	if err := f.Write(1, 0, 0, rkey, 0, []byte("w"), 7, true); err != nil {
		t.Fatal(err)
	}
	var comps [4]fabric.Completion
	if n := e1.PollReady(comps[:]); n != 0 || e1.NReady() != 0 {
		t.Fatalf("closed endpoint delivered %d events: %+v", n, comps[:n])
	}
	if string(posted) != "untouch!" {
		t.Fatalf("a buffer posted before Close was written: %q", posted)
	}
}
