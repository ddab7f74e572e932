package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"lci/internal/base"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

func TestWireHeaderRoundTrip(t *testing.T) {
	f := func(kind uint8, policy uint8, engine uint16, tag int32, rcomp uint32, size uint32, token, rkey uint64) bool {
		h := header{
			kind:   msgKind(kind),
			policy: base.MatchingPolicy(policy),
			engine: engine,
			tag:    tag,
			rcomp:  base.RComp(rcomp),
			size:   size,
			token:  token,
			rkey:   rkey,
		}
		var buf [headerSize]byte
		h.encode(buf[:])
		return decodeHeader(buf[:]) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImmEncoding(t *testing.T) {
	f := func(rc uint32, tag int32) bool {
		rc &= 0x7fffffff
		imm := encodePutImm(base.RComp(rc), int(tag))
		if isRdvImm(imm) {
			return false
		}
		gotRC, gotTag := decodePutImm(imm)
		return gotRC == base.RComp(rc) && gotTag == int(tag)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !isRdvImm(encodeRdvImm(42)) {
		t.Fatal("rendezvous imm not flagged")
	}
	if isRdvImm(encodePutImm(1, 2)) {
		t.Fatal("put imm flagged as rendezvous")
	}
}

func TestTokenTable(t *testing.T) {
	var tt tokenTable
	a := tt.alloc("a")
	b := tt.alloc("b")
	if a == b {
		t.Fatal("duplicate tokens")
	}
	if tt.get(a) != "a" || tt.get(b) != "b" {
		t.Fatal("lookup failed")
	}
	if tt.inUse() != 2 {
		t.Fatalf("inUse = %d", tt.inUse())
	}
	if tt.release(a) != "a" {
		t.Fatal("release returned wrong value")
	}
	if tt.get(a) != nil {
		t.Fatal("released token still resolves")
	}
	// Freed slots are reused under a new generation: the slot index comes
	// back, the old token stays stale forever.
	c := tt.alloc("c")
	if c&tokenIndexMask != a&tokenIndexMask {
		t.Fatalf("freed slot not reused: got index %d want %d", c&tokenIndexMask, a&tokenIndexMask)
	}
	if c == a {
		t.Fatal("generation did not advance on release")
	}
	if tt.get(a) != nil || tt.release(a) != nil {
		t.Fatal("stale-generation token resolved")
	}
	if tt.get(c) != "c" {
		t.Fatal("reallocated token does not resolve")
	}
	// releaseIf refuses a mismatched value and honors a matched one.
	if tt.releaseIf(c, "x") {
		t.Fatal("releaseIf freed a mismatched value")
	}
	if !tt.releaseIf(c, "c") {
		t.Fatal("releaseIf refused the matching value")
	}
}

func newTestRuntime(t *testing.T, n int) []*Runtime {
	t.Helper()
	return newTestRuntimeCfg(t, n, Config{PacketsPerWorker: 8, PreRecvs: 4})
}

func newTestRuntimeCfg(t *testing.T, n int, cfg Config) []*Runtime {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: n})
	be := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1}
	rts := make([]*Runtime, n)
	for r := 0; r < n; r++ {
		rt, err := NewRuntime(be, fab, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rts[r] = rt
	}
	return rts
}

// TestPacketStarvationYieldsRetry: with a tiny packet quota, posting many
// sends without progressing must eventually surface RetryPacketPool or
// RetryTxFull — the paper's in-band retry (§4.2.5) — not block or fail.
func TestPacketStarvationYieldsRetry(t *testing.T) {
	rts := newTestRuntime(t, 2)
	defer rts[0].Close()
	defer rts[1].Close()
	sawRetry := false
	buf := make([]byte, 1024) // buffer-copy eager (needs a packet)
	for i := 0; i < 10_000 && !sawRetry; i++ {
		st, err := rts[0].PostSend(1, buf, 1, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.IsRetry() {
			if st.Reason != base.RetryPacketPool && st.Reason != base.RetryTxFull {
				t.Fatalf("unexpected retry reason %v", st.Reason)
			}
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no retry after 10k unprogressed sends with an 8-packet quota")
	}
}

func TestPostValidation(t *testing.T) {
	rts := newTestRuntime(t, 2)
	defer rts[0].Close()
	defer rts[1].Close()
	rt := rts[0]
	if _, err := rt.PostSend(5, []byte("x"), 0, nil, Options{}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := rt.PostRecv(1, []byte("x"), 0, nil, Options{}); err == nil {
		t.Error("recv with nil completion accepted")
	}
	if _, err := rt.PostAM(1, []byte("x"), 0, nil, Options{}); err == nil {
		t.Error("AM without rcomp accepted")
	}
	if _, err := rt.PostPut(1, []byte("x"), 0, nil, Options{}); err == nil {
		t.Error("put without remote buffer accepted")
	}
	big := make([]byte, rt.Config().MaxMessageSize+1)
	if _, err := rt.PostSend(1, big, 0, nil, Options{}); err == nil {
		t.Error("oversize message accepted")
	}
}

func TestRCompRegistry(t *testing.T) {
	rts := newTestRuntime(t, 1)
	defer rts[0].Close()
	rt := rts[0]
	if rt.lookupRComp(0) != nil || rt.lookupRComp(99) != nil {
		t.Fatal("invalid handles resolved")
	}
	c := base.Comp(nil)
	_ = c
	h1 := rt.RegisterRComp(noopComp{})
	h2 := rt.RegisterRComp(noopComp{})
	if h1 == h2 || h1 == base.InvalidRComp {
		t.Fatalf("handles %v %v", h1, h2)
	}
	if rt.lookupRComp(h1) == nil {
		t.Fatal("registered handle does not resolve")
	}
	rt.DeregisterRComp(h1)
	if rt.lookupRComp(h1) != nil {
		t.Fatal("deregistered handle still resolves")
	}
}

type noopComp struct{}

func (noopComp) Signal(base.Status) {}

func TestDeviceBacklogDisallowRetry(t *testing.T) {
	rts := newTestRuntime(t, 2)
	defer rts[0].Close()
	defer rts[1].Close()
	// With DisallowRetry, starvation diverts to the backlog instead of
	// bouncing a Retry to the caller.
	buf := make([]byte, 1024)
	posted := 0
	for i := 0; i < 64; i++ {
		st, err := rts[0].PostSend(1, buf, 1, noopComp{}, Options{DisallowRetry: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.IsRetry() {
			t.Fatal("Retry returned despite DisallowRetry")
		}
		posted++
	}
	if posted != 64 {
		t.Fatalf("posted %d", posted)
	}
	// Progress both sides until the backlog drains.
	for i := 0; i < 10_000 && rts[0].DefaultDevice().BacklogLen() > 0; i++ {
		rts[0].DefaultDevice().Progress()
		rts[1].DefaultDevice().Progress()
	}
	if got := rts[0].DefaultDevice().BacklogLen(); got != 0 {
		t.Fatalf("backlog still has %d entries", got)
	}
}

// atomicCounter is a minimal completion object for the multi-device tests.
type atomicCounter struct{ n atomic.Int64 }

func (c *atomicCounter) Signal(base.Status) { c.n.Add(1) }

// TestDevicePoolConfig: Config.NumDevices builds a pool of distinct
// devices with consecutive endpoint indices, and NewDevice grows it.
func TestDevicePoolConfig(t *testing.T) {
	rts := newTestRuntimeCfg(t, 1, Config{NumDevices: 4, PacketsPerWorker: 8, PreRecvs: 4})
	rt := rts[0]
	defer rt.Close()
	if got := rt.NumDevices(); got != 4 {
		t.Fatalf("NumDevices = %d, want 4", got)
	}
	if rt.DefaultDevice() != rt.Device(0) {
		t.Fatal("default device is not pool device 0")
	}
	for i := 0; i < 4; i++ {
		if idx := rt.Device(i).Index(); idx != i {
			t.Fatalf("Device(%d).Index() = %d", i, idx)
		}
	}
	d, err := rt.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumDevices() != 5 || rt.Device(4) != d {
		t.Fatal("NewDevice did not join the pool")
	}
}

// TestUnpinnedPostsStripe: posts without a device option must spread
// round-robin across the pool, and the peer's same-index endpoints must
// each carry a share of the traffic (device-indexed wire addressing).
func TestUnpinnedPostsStripe(t *testing.T) {
	const devices, msgs = 4, 64
	rts := newTestRuntimeCfg(t, 2, Config{NumDevices: devices, PacketsPerWorker: 64, PreRecvs: 16})
	defer rts[0].Close()
	defer rts[1].Close()
	got := &atomicCounter{}
	rc := rts[1].RegisterRComp(got)
	buf := []byte("stripe-me")
	for i := 0; i < msgs; i++ {
		for {
			st, err := rts[0].PostAM(1, buf, 0, nil, Options{RComp: rc})
			if err != nil {
				t.Fatal(err)
			}
			if !st.IsRetry() {
				break
			}
			rts[0].ProgressAll()
			rts[1].ProgressAll()
		}
	}
	for i := 0; i < 100_000 && got.n.Load() < msgs; i++ {
		rts[0].ProgressAll()
		rts[1].ProgressAll()
	}
	if got.n.Load() != msgs {
		t.Fatalf("delivered %d of %d", got.n.Load(), msgs)
	}
	for i := 0; i < devices; i++ {
		if n := rts[1].Telemetry().Snapshot().Devices[i].Gauges.Net.Msgs; n < msgs/devices/2 {
			t.Errorf("endpoint %d carried %d msgs; striping should spread ~%d per device", i, n, msgs/devices)
		}
	}
}

// TestRegisterThreadRoundRobin: successive thread registrations cycle
// through the pool, and posting with an affinity stays on its device.
func TestRegisterThreadRoundRobin(t *testing.T) {
	rts := newTestRuntimeCfg(t, 2, Config{NumDevices: 3, PacketsPerWorker: 16, PreRecvs: 4})
	defer rts[0].Close()
	defer rts[1].Close()
	rt := rts[0]
	for i := 0; i < 6; i++ {
		a := rt.RegisterThread()
		if want := i % 3; a.Device().Index() != want {
			t.Fatalf("registration %d pinned to device %d, want %d", i, a.Device().Index(), want)
		}
	}
	// Affinity posts land on the pinned device's same-index peer endpoint.
	a := rt.RegisterThreadOn(2)
	got := &atomicCounter{}
	rc := rts[1].RegisterRComp(got)
	const msgs = 8
	for i := 0; i < msgs; i++ {
		st, err := rt.PostAM(1, []byte("pinned"), 0, nil, Options{Affinity: a, RComp: rc})
		if err != nil {
			t.Fatal(err)
		}
		if st.IsRetry() {
			t.Fatal("unexpected retry with generous quotas")
		}
	}
	for i := 0; i < 100_000 && got.n.Load() < msgs; i++ {
		rts[1].Device(2).Progress()
	}
	if got.n.Load() != msgs {
		t.Fatalf("delivered %d of %d via peer device 2", got.n.Load(), msgs)
	}
	if n := rts[1].Telemetry().Snapshot().Devices[2].Gauges.Net.Msgs; n != msgs {
		t.Fatalf("peer endpoint 2 carried %d msgs, want %d", n, msgs)
	}
}

// TestRemoteDeviceZeroExplicit: the RemoteDeviceSet flag makes endpoint 0
// addressable from any posting device, while the same-index default
// keeps working.
func TestRemoteDeviceZeroExplicit(t *testing.T) {
	rts := newTestRuntimeCfg(t, 2, Config{NumDevices: 2, PacketsPerWorker: 16, PreRecvs: 4})
	defer rts[0].Close()
	defer rts[1].Close()
	got := &atomicCounter{}
	rc := rts[1].RegisterRComp(got)

	post := func(opts Options) {
		t.Helper()
		opts.RComp = rc
		opts.Device = rts[0].Device(1) // post everything from device 1
		st, err := rts[0].PostAM(1, []byte("x"), 0, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.IsRetry() {
			t.Fatal("unexpected retry")
		}
	}

	post(Options{RemoteDevice: 0, RemoteDeviceSet: true}) // explicit device 0
	post(Options{})                                       // default: same index as posting device (1)

	// Drain via all devices; then check per-endpoint delivery counts.
	for i := 0; i < 100_000 && got.n.Load() < 2; i++ {
		rts[1].ProgressAll()
	}
	if got.n.Load() != 2 {
		t.Fatalf("delivered %d of 2", got.n.Load())
	}
	if n := rts[1].Telemetry().Snapshot().Devices[0].Gauges.Net.Msgs; n != 1 {
		t.Errorf("endpoint 0 carried %d msgs, want 1 (explicit RemoteDevice 0)", n)
	}
	if n := rts[1].Telemetry().Snapshot().Devices[1].Gauges.Net.Msgs; n != 1 {
		t.Errorf("endpoint 1 carried %d msgs, want 1 (default)", n)
	}
}

// TestMultiDeviceBacklogConcurrentDrain: posts rejected by exhausted
// per-device transmit queues park (DisallowRetry) on the backlogs of
// several pool devices; one progress goroutine per device must drain them
// all concurrently (race-clean) and deliver every message exactly once,
// with retries interleaving as TX credits return.
func TestMultiDeviceBacklogConcurrentDrain(t *testing.T) {
	const devices, msgs = 4, 200
	// A 4-deep transmit queue per device makes rapid-fire posting outrun
	// the network, so most posts divert to the backlogs.
	fab := fabric.New(fabric.Config{NumRanks: 2})
	be := nic.Config{SendOverheadNs: 1, RecvOverheadNs: 1, TxDepth: 4}
	cfg := Config{NumDevices: devices, PacketsPerWorker: 32, PreRecvs: 4}
	rts := make([]*Runtime, 2)
	for r := range rts {
		rt, err := NewRuntime(be, fab, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rts[r] = rt
	}
	defer rts[0].Close()
	defer rts[1].Close()
	got := &atomicCounter{}
	rc := rts[1].RegisterRComp(got)
	buf := make([]byte, 512) // needs a packet (beyond inline), so starvation bites
	backlogged := false
	for i := 0; i < msgs; i++ {
		st, err := rts[0].PostAM(1, buf, 0, noopComp{}, Options{RComp: rc, DisallowRetry: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.IsRetry() {
			t.Fatal("Retry returned despite DisallowRetry")
		}
		if st.Reason == base.RetryBacklog {
			backlogged = true
		}
	}
	if !backlogged {
		t.Fatal("no post was backlogged; starvation scenario not exercised")
	}
	// One progress goroutine per rank-0 device plus one draining rank 1.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(d *Device) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					d.Progress()
				}
			}
		}(rts[0].Device(i))
	}
	deadline := time.Now().Add(20 * time.Second)
	for got.n.Load() < msgs && time.Now().Before(deadline) {
		rts[1].ProgressAll()
	}
	close(stop)
	wg.Wait()
	if got.n.Load() != msgs {
		t.Fatalf("delivered %d of %d", got.n.Load(), msgs)
	}
	for i := 0; i < devices; i++ {
		if n := rts[0].Device(i).BacklogLen(); n != 0 {
			t.Errorf("device %d backlog still has %d entries", i, n)
		}
	}
}
