package core

import (
	"errors"
	"testing"
	"time"

	"lci/internal/base"
	"lci/internal/comp"
	"lci/internal/fault"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// newFaultRuntimes builds n runtimes over a fabric with inj installed
// BEFORE any runtime exists (the documented order: each device reads the
// injector at creation).
func newFaultRuntimes(t *testing.T, n int, inj *fault.Injector, cfg Config) []*Runtime {
	t.Helper()
	fab := fabric.New(fabric.Config{NumRanks: n})
	if inj != nil {
		fab.SetInjector(inj)
	}
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

// progressUntil progresses every runtime until cond returns true or the
// round budget runs out.
func progressUntil(t *testing.T, rts []*Runtime, rounds int, cond func() bool) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for _, rt := range rts {
			rt.ProgressAll()
		}
		if cond() {
			return
		}
	}
	t.Fatalf("condition not reached in %d progress rounds", rounds)
}

func sumHardening(rt *Runtime) (retransmits, timeouts, dups, dead, sweeps int64) {
	for _, d := range rt.Telemetry().Snapshot().Devices {
		retransmits += d.Counters.Retransmits
		timeouts += d.Counters.RdvTimeouts
		dups += d.Counters.DupSuppressed
		dead += d.Counters.PeerDeadErrors
		sweeps += d.Counters.DeadSweeps
	}
	return
}

// TestRendezvousRTSDropRetransmit: the very first RTS is dropped by a
// scripted event; the sender's timeout layer retransmits it and the
// transfer completes exactly once with the full payload.
func TestRendezvousRTSDropRetransmit(t *testing.T) {
	inj := fault.New(1, 2)
	inj.AddEvent(fault.Event{Src: 0, Dst: 1, Kind: KindRTS, N: 1, Action: fault.ActDrop})
	rts := newFaultRuntimes(t, 2, inj, Config{RendezvousTimeoutEpochs: 64})
	defer rts[0].Close()
	defer rts[1].Close()

	size := rts[0].MaxEager() + 1024
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, size)
	sc, rc := &comp.Counter{}, &comp.Counter{}
	if _, err := rts[0].PostSend(1, src, 7, sc, Options{DisallowRetry: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := rts[1].PostRecv(0, dst, 7, rc, Options{}); err != nil {
		t.Fatal(err)
	}
	progressUntil(t, rts, 1_000_000, func() bool { return sc.Load() >= 1 && rc.Load() >= 1 })
	if sc.Load() != 1 || rc.Load() != 1 {
		t.Fatalf("completions: send=%d recv=%d, want exactly 1 each", sc.Load(), rc.Load())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("send error-completed: %v", err)
	}
	if err := rc.Err(); err != nil {
		t.Fatalf("recv error-completed: %v", err)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("payload corrupt at %d: got %d want %d", i, dst[i], src[i])
		}
	}
	if re, _, _, _, _ := sumHardening(rts[0]); re < 1 {
		t.Fatalf("sender retransmits = %d, want >= 1", re)
	}
	if c := inj.Snapshot(); c.Drops != 1 {
		t.Fatalf("injector drops = %d, want 1", c.Drops)
	}
	checkRecordsBalanced(t, rts...)
}

// TestRendezvousRTRDropRecovery: the receiver's first RTR is dropped; the
// sender's RTS retransmit makes the receiver re-send the identical RTR
// (idempotent — same receiver token), and the transfer completes with no
// duplicate delivery.
func TestRendezvousRTRDropRecovery(t *testing.T) {
	inj := fault.New(2, 2)
	inj.AddEvent(fault.Event{Src: 1, Dst: 0, Kind: KindRTR, N: 1, Action: fault.ActDrop})
	rts := newFaultRuntimes(t, 2, inj, Config{RendezvousTimeoutEpochs: 64})
	defer rts[0].Close()
	defer rts[1].Close()

	size := rts[0].MaxEager() + 4096
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i * 3)
	}
	dst := make([]byte, size)
	sc, rc := &comp.Counter{}, &comp.Counter{}
	if _, err := rts[1].PostRecv(0, dst, 9, rc, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rts[0].PostSend(1, src, 9, sc, Options{DisallowRetry: true}); err != nil {
		t.Fatal(err)
	}
	progressUntil(t, rts, 1_000_000, func() bool { return sc.Load() >= 1 && rc.Load() >= 1 })
	if sc.Load() != 1 || rc.Load() != 1 {
		t.Fatalf("completions: send=%d recv=%d, want exactly 1 each", sc.Load(), rc.Load())
	}
	if sc.Err() != nil || rc.Err() != nil {
		t.Fatalf("errors: send=%v recv=%v", sc.Err(), rc.Err())
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("payload corrupt at %d", i)
		}
	}
	// The sender retransmitted the RTS; the receiver suppressed the
	// duplicate and re-sent the RTR.
	if re, _, _, _, _ := sumHardening(rts[0]); re < 1 {
		t.Fatalf("sender retransmits = %d, want >= 1", re)
	}
	if _, _, dups, _, _ := sumHardening(rts[1]); dups < 1 {
		t.Fatalf("receiver dup-suppressed = %d, want >= 1", dups)
	}
	checkRecordsBalanced(t, rts...)
}

// TestRendezvousTimeoutAtCap: every RTS from 0 to 1 is dropped, so the
// handshake can never complete; the send must error-complete with
// ErrTimeout after the bounded retransmit budget — no hang, no leak.
func TestRendezvousTimeoutAtCap(t *testing.T) {
	inj := fault.New(3, 2)
	inj.SetRule(0, 1, fault.Rule{DropP: 1, KindMask: fault.KindBit(KindRTS)})
	rts := newFaultRuntimes(t, 2, inj, Config{
		RendezvousTimeoutEpochs: 64, RendezvousMaxAttempts: 3,
	})
	defer rts[0].Close()
	defer rts[1].Close()

	src := make([]byte, rts[0].MaxEager()+1)
	sc := &comp.Counter{}
	if _, err := rts[0].PostSend(1, src, 3, sc, Options{DisallowRetry: true}); err != nil {
		t.Fatal(err)
	}
	progressUntil(t, rts, 1_000_000, func() bool { return sc.Load() >= 1 })
	if !errors.Is(sc.Err(), ErrTimeout) {
		t.Fatalf("send completed with %v, want ErrTimeout", sc.Err())
	}
	if rts[0].Device(0).tokens.live() != 0 {
		t.Fatalf("token table not empty after timeout: %d live", rts[0].Device(0).tokens.live())
	}
	re, to, _, _, _ := sumHardening(rts[0])
	if to != 1 {
		t.Fatalf("RdvTimeouts = %d, want 1", to)
	}
	if re != 3 {
		t.Fatalf("Retransmits = %d, want 3 (the configured cap)", re)
	}
	checkRecordsBalanced(t, rts...)
}

// TestRendezvousTimeoutIsTime: the timeout clock runs on monotonic time,
// not on the count of local progress calls. With the chaos soak's budget
// (128 epochs, 24 attempts) a sender spinning alone on progress for 20 ms
// — hundreds of thousands of calls while its peer is descheduled — must
// not exhaust its retransmits: once the peer runs, both sides complete
// without error.
func TestRendezvousTimeoutIsTime(t *testing.T) {
	rts := newFaultRuntimes(t, 2, nil, Config{
		RendezvousTimeoutEpochs: 128, RendezvousMaxAttempts: 24,
	})
	defer rts[0].Close()
	defer rts[1].Close()

	src := make([]byte, 256<<10)
	for i := range src {
		src[i] = byte(i * 5)
	}
	dst := make([]byte, len(src))
	sc, rc := &comp.Counter{}, &comp.Counter{}
	if _, err := rts[1].PostRecv(0, dst, 11, rc, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rts[0].PostSend(1, src, 11, sc, Options{DisallowRetry: true}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; calls++ {
		rts[0].ProgressAll()
	}
	// The clock still fires: keep the receiver descheduled until the
	// sender has retransmitted its RTS at least once.
	for deadline := time.Now().Add(5 * time.Second); ; calls++ {
		if re, _, _, _, _ := sumHardening(rts[0]); re >= 1 || sc.Load() > 0 || time.Now().After(deadline) {
			break
		}
		rts[0].ProgressAll()
	}
	if sc.Load() > 0 {
		t.Fatalf("send completed after %d sender-only progress calls: %v", calls, sc.Err())
	}
	if re, _, _, _, _ := sumHardening(rts[0]); re < 1 {
		t.Fatalf("sender never retransmitted in %d progress calls", calls)
	}
	progressUntil(t, rts, 10_000_000, func() bool { return sc.Load() >= 1 && rc.Load() >= 1 })
	if sc.Err() != nil || rc.Err() != nil {
		t.Fatalf("after %d sender-only progress calls: send=%v recv=%v", calls, sc.Err(), rc.Err())
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("payload corrupt at %d", i)
		}
	}
	checkRecordsBalanced(t, rts...)
}

// TestKillRankSurfacesPeerDead: killing a rank makes (a) new posts to it
// fail fast with ErrPeerDead, (b) new receives naming it refuse to park,
// and (c) receives already parked get swept and error-completed instead
// of wedging a waiter forever.
func TestKillRankSurfacesPeerDead(t *testing.T) {
	inj := fault.New(4, 2)
	rts := newFaultRuntimes(t, 2, inj, Config{})
	defer rts[0].Close()
	defer rts[1].Close()

	// Park a receive naming rank 1 before the death.
	parked := &comp.Counter{}
	if _, err := rts[0].PostRecv(1, make([]byte, 64), 5, parked, Options{}); err != nil {
		t.Fatal(err)
	}

	inj.KillRank(1)

	// (a) sends to the dead rank fail fast with the typed error.
	if _, err := rts[0].PostSend(1, make([]byte, 128), 1, nil, Options{}); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("PostSend to dead rank: err=%v, want ErrPeerDead", err)
	}
	if _, err := rts[0].PostSend(1, make([]byte, 1<<15), 1, nil, Options{}); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("rendezvous PostSend to dead rank: err=%v, want ErrPeerDead", err)
	}
	// (b) a new receive naming the dead rank is refused outright...
	if _, err := rts[0].PostRecv(1, make([]byte, 64), 2, &comp.Counter{}, Options{}); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("PostRecv from dead rank: err=%v, want ErrPeerDead", err)
	}
	// ...but a wildcard-rank receive stays postable.
	if _, err := rts[0].PostRecv(1, make([]byte, 64), 2, &comp.Counter{}, Options{Policy: base.MatchTagOnly}); err != nil {
		t.Fatalf("wildcard PostRecv after death: %v", err)
	}

	// (c) the parked receive is swept by the next progress round.
	progressUntil(t, rts[:1], 1000, func() bool { return parked.Load() >= 1 })
	if !errors.Is(parked.Err(), ErrPeerDead) {
		t.Fatalf("swept recv error = %v, want ErrPeerDead", parked.Err())
	}
	if _, _, _, _, sweeps := sumHardening(rts[0]); sweeps < 1 {
		t.Fatalf("DeadSweeps = %d, want >= 1", sweeps)
	}
	// Withdraw the wildcard receive, which no live rank will match, so
	// rank 0 can quiesce.
	if n := rts[0].CancelRecvs(&MatchEngine{eng: rts[0].defME}, ErrClosed); n != 1 {
		t.Fatalf("CancelRecvs withdrew %d receives, want the 1 wildcard", n)
	}
	checkRecordsBalanced(t, rts...)
}

// TestCloseAbortsInFlight: a rendezvous wedged by a lossy fabric (every
// RTR dropped, timeouts disabled) must not leak at Close — both sides'
// completion objects are signaled with ErrClosed.
func TestCloseAbortsInFlight(t *testing.T) {
	inj := fault.New(5, 2)
	inj.SetRule(1, 0, fault.Rule{DropP: 1, KindMask: fault.KindBit(KindRTR)})
	rts := newFaultRuntimes(t, 2, inj, Config{})

	size := rts[0].MaxEager() + 1
	sc, rc := &comp.Counter{}, &comp.Counter{}
	if _, err := rts[1].PostRecv(0, make([]byte, size), 4, rc, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rts[0].PostSend(1, make([]byte, size), 4, sc, Options{DisallowRetry: true}); err != nil {
		t.Fatal(err)
	}
	// Let the RTS land and the (doomed) RTR fly: both sides now hold live
	// rendezvous tokens.
	for i := 0; i < 2000; i++ {
		rts[0].ProgressAll()
		rts[1].ProgressAll()
	}
	if sc.Load() != 0 || rc.Load() != 0 {
		t.Fatalf("completed under a fully lossy RTR path: send=%d recv=%d", sc.Load(), rc.Load())
	}
	if err := rts[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := rts[1].Close(); err != nil {
		t.Fatal(err)
	}
	if sc.Load() != 1 || !errors.Is(sc.Err(), ErrClosed) {
		t.Fatalf("sender after Close: n=%d err=%v, want 1 × ErrClosed", sc.Load(), sc.Err())
	}
	if rc.Load() != 1 || !errors.Is(rc.Err(), ErrClosed) {
		t.Fatalf("receiver after Close: n=%d err=%v, want 1 × ErrClosed", rc.Load(), rc.Err())
	}
	// Close is idempotent.
	if err := rts[0].Close(); err != nil {
		t.Fatal(err)
	}
	checkRecordsBalanced(t, rts...)
}

// TestDuplicateRTSDelivery: a duplicating pair rule doubles RTS arrivals;
// generations plus the receiver seen-set must keep delivery exactly-once.
func TestDuplicateRTSDelivery(t *testing.T) {
	inj := fault.New(6, 2)
	inj.SetRule(0, 1, fault.Rule{DupP: 1, KindMask: fault.KindBit(KindRTS)})
	rts := newFaultRuntimes(t, 2, inj, Config{RendezvousTimeoutEpochs: 64})
	defer rts[0].Close()
	defer rts[1].Close()

	size := rts[0].MaxEager() + 100
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i ^ 0x5a)
	}
	dst := make([]byte, size)
	sc, rc := &comp.Counter{}, &comp.Counter{}
	if _, err := rts[1].PostRecv(0, dst, 8, rc, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rts[0].PostSend(1, src, 8, sc, Options{DisallowRetry: true}); err != nil {
		t.Fatal(err)
	}
	progressUntil(t, rts, 1_000_000, func() bool { return sc.Load() >= 1 && rc.Load() >= 1 })
	if sc.Load() != 1 || rc.Load() != 1 {
		t.Fatalf("completions: send=%d recv=%d, want exactly 1 each", sc.Load(), rc.Load())
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("payload corrupt at %d", i)
		}
	}
	if _, _, dups, _, _ := sumHardening(rts[1]); dups < 1 {
		t.Fatalf("receiver dup-suppressed = %d, want >= 1", dups)
	}
	checkRecordsBalanced(t, rts...)
}

// TestRendezvousSeenKeyNoAlias: the receiver's duplicate-RTS seen-set
// must not absorb a fresh RTS whose sender token recurs. Token slots are
// reused LIFO and their generation is 16 bits, so on rank 0 one slot
// serves every rendezvous (sends and receives alike) and its token comes
// back after 65536 cycles, while rank 1 — which completes only one
// rendezvous per round from rank 0 — still holds that send's tombstone.
// With no injector and no timeouts nothing would retransmit an absorbed
// RTS, so the 513th send would never complete.
func TestRendezvousSeenKeyNoAlias(t *testing.T) {
	rts := newFaultRuntimes(t, 2, nil, Config{})
	defer rts[0].Close()
	defer rts[1].Close()

	size := rts[0].MaxEager() + 1
	src, dst := make([]byte, size), make([]byte, size)
	c0, c1 := &comp.Counter{}, &comp.Counter{}
	var want0, want1 int64
	transfer := func(round, from, to int, fc, tc *comp.Counter) {
		if _, err := rts[to].PostRecv(from, dst, 3, tc, Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := rts[from].PostSend(to, src, 3, fc, Options{DisallowRetry: true}); err != nil {
			t.Fatal(err)
		}
		want0++
		want1++
		for i := 0; c0.Load() < want0 || c1.Load() < want1; i++ {
			if i == 10_000 {
				t.Fatalf("round %d: rendezvous %d->%d never completed", round, from, to)
			}
			rts[0].ProgressAll()
			rts[1].ProgressAll()
		}
	}
	const rounds = 520 // > 65536/128: the first send's token recurs at round 512
	for r := 0; r < rounds; r++ {
		for i := 0; i < 127; i++ {
			transfer(r, 1, 0, c1, c0)
		}
		transfer(r, 0, 1, c0, c1)
	}
	if c0.Load() != want0 || c1.Load() != want1 {
		t.Fatalf("completions: rank0=%d rank1=%d, want %d each", c0.Load(), c1.Load(), want0)
	}
	if err := c0.Err(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Err(); err != nil {
		t.Fatal(err)
	}
	checkRecordsBalanced(t, rts...)
}
