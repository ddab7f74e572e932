// Package packet implements LCI's packet pool (§5.1.2): efficient
// allocation and deallocation of fixed-size pre-registered buffers
// ("packets"). The pool is a collection of per-worker double-ended queues
// whose directory is an MPMC array. Each worker puts and gets at the tail
// of its own deque; when the local deque is empty the worker steals half
// the victim's packets from the head of a randomly selected deque —
// tail-local operation plus head-side stealing gives better cache
// locality. A per-deque spinlock provides thread safety with no contention
// on the normal path.
//
// C++ LCI finds the local deque through a thread_local variable; Go has no
// goroutine-local storage, so callers hold an explicit *Worker handle
// (registered once per goroutine, or once per device for the common
// one-device-per-thread layout).
package packet

import (
	"sync"
	"sync/atomic"

	"lci/internal/mpmc"
	"lci/internal/spin"
	"lci/internal/telemetry"
	"lci/internal/topo"
)

// Packet is a fixed-size pre-registered buffer. Data has the pool's full
// packet size; users slice it as needed.
//
// Ownership hand-off rules: whoever holds the *Packet owns Data outright
// until it calls Put, at which point the buffer may be reissued to any
// worker and must not be touched again. The core runtime exploits the
// window between arrival and Put for zero-copy delivery — remote-handler
// active messages are invoked with Status.Buffer aliasing the packet's
// payload region, which is why handler payloads are documented as valid
// only for the duration of the call: the poller recycles the packet the
// moment the handler returns. Completion objects that outlive the call
// (queues, parked matching-engine arrivals) either copy the payload first
// or keep the packet checked out until they are drained.
type Packet struct {
	Data []byte
	// Src is the source rank of a received packet, recorded by the
	// receiver for as long as it holds the packet (an unexpected message
	// parked in a matching engine is the packet itself).
	Src  int
	pool *Pool
}

// Pool manages the packets.
type Pool struct {
	packetSize      int
	packetsPerShard int
	shards          *mpmc.Array[*shard]
	allocated       atomic.Int64
	// tel gates the get-path counters (nil = never count). Counters live
	// per shard, so the hot path bumps owner-local memory; TelemetrySnap
	// pays the summation on the reader side.
	tel *telemetry.Flags
}

// shard embeds its deque by value and pads both ends so that no two
// shards' hot fields share a cacheline. The lock word is an unpadded
// spin.Lock placed right next to the deque header it guards, so the
// normal-path get/put — acquire, bump the deque, release — is a single
// cache-line run (§5.1.2).
type shard struct {
	_    spin.Pad
	mu   spin.Lock
	dq   mpmc.Deque[*Packet]
	seed uint64 // per-worker xorshift state (only touched by the owner)

	// cached is a one-packet bounce buffer for the get-use-put cycle that
	// dominates the eager path: the packet handed back by Put is the one
	// the next Get wants, so it short-circuits the deque entirely. A single
	// atomic swap keeps it safe for the rare concurrent users of a shared
	// device worker; stealing never sees it, which at worst hides one
	// packet per worker from a starving thief.
	cached atomic.Pointer[Packet]

	// Telemetry counters, owner-mostly like the rest of the shard.
	statGets    atomic.Int64
	statBounces atomic.Int64
	statSteals  atomic.Int64
	statEmpty   atomic.Int64

	// slab is the memory every packet of the shard's quota points into.
	slab []byte
	_    spin.Pad
}

// Worker is a per-goroutine (or per-device) handle into the pool.
type Worker struct {
	pool   *Pool
	shard  *shard
	idx    int
	domain int // NUMA domain the shard's slab memory is modeled as bound to
}

// DefaultPacketSize is the packet buffer size (eager-protocol ceiling).
const DefaultPacketSize = 8192

// DefaultPacketsPerWorker is the number of packets pre-allocated per
// registered worker.
const DefaultPacketsPerWorker = 1024

// NewPool creates a pool. Sizes <= 0 select the defaults.
func NewPool(packetSize, packetsPerWorker int) *Pool {
	if packetSize <= 0 {
		packetSize = DefaultPacketSize
	}
	if packetsPerWorker <= 0 {
		packetsPerWorker = DefaultPacketsPerWorker
	}
	return &Pool{
		packetSize:      packetSize,
		packetsPerShard: packetsPerWorker,
		shards:          mpmc.NewArray[*shard](8),
	}
}

// PacketSize returns the pool's packet buffer size.
func (p *Pool) PacketSize() int { return p.packetSize }

// RegisterWorker creates a new per-worker deque pre-filled with this
// worker's packet quota and returns its handle. The worker's slab is
// domain-unbound (topo.UnknownDomain): it never participates in
// cross-domain cost accounting.
func (p *Pool) RegisterWorker() *Worker {
	return p.RegisterWorkerIn(topo.UnknownDomain)
}

// RegisterWorkerIn is RegisterWorker with the worker's packet slab
// modeled as allocated in NUMA domain dom (first-touch by a thread
// running there). Posting paths compare this domain against the posting
// device's bound domain to charge the simulated cross-domain penalty.
func (p *Pool) RegisterWorkerIn(dom int) *Worker {
	s := &shard{slab: takeSlab(p.packetsPerShard * p.packetSize)}
	s.dq.Init(p.packetsPerShard)
	for i := 0; i < p.packetsPerShard; i++ {
		s.dq.PushBack(&Packet{
			Data: s.slab[i*p.packetSize : (i+1)*p.packetSize : (i+1)*p.packetSize],
			pool: p,
		})
	}
	idx := p.shards.Append(s)
	s.seed = uint64(idx)*0x9e3779b97f4a7c15 + 0x1234567
	p.allocated.Add(int64(p.packetsPerShard))
	return &Worker{pool: p, shard: s, idx: idx, domain: dom}
}

// Domain reports the NUMA domain the worker's slab is modeled as bound
// to (topo.UnknownDomain when unbound). It doubles as the owning
// goroutine's domain: a worker is registered by — and its slab
// first-touched from — the thread that uses it.
func (w *Worker) Domain() int { return w.domain }

// counting reports whether the pool's telemetry counters are live.
func (p *Pool) counting() bool {
	f := p.tel
	return f != nil && f.Counting()
}

// Get pops a packet from the worker's own deque tail; on local exhaustion
// it attempts to steal half of a random victim's packets from the head.
// Get returns nil when no packet could be found — the nonblocking failure
// that surfaces as a Retry status from posting operations.
func (w *Worker) Get() *Packet {
	if pkt := w.shard.cached.Swap(nil); pkt != nil {
		if w.pool.counting() {
			w.shard.statGets.Add(1)
			w.shard.statBounces.Add(1)
		}
		return pkt
	}
	s := w.shard
	s.mu.Lock()
	pkt, ok := s.dq.PopBack()
	s.mu.Unlock()
	if ok {
		if w.pool.counting() {
			s.statGets.Add(1)
		}
		return pkt
	}
	pkt = w.steal()
	if w.pool.counting() {
		if pkt != nil {
			s.statGets.Add(1)
			s.statSteals.Add(1)
		} else {
			s.statEmpty.Add(1)
		}
	}
	return pkt
}

// Put returns a packet to the worker's cache slot, or to its own deque
// tail when the slot is occupied.
func (w *Worker) Put(pkt *Packet) {
	if pkt == nil {
		panic("packet: Put(nil)")
	}
	if pkt.pool != w.pool {
		panic("packet: packet returned to the wrong pool")
	}
	if w.shard.cached.CompareAndSwap(nil, pkt) {
		return
	}
	s := w.shard
	s.mu.Lock()
	s.dq.PushBack(pkt)
	s.mu.Unlock()
}

// nextRand advances the worker-local xorshift state. Only the owning
// goroutine touches seed, so no synchronization is needed.
func (w *Worker) nextRand() uint64 {
	x := w.shard.seed
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.shard.seed = x
	return x
}

// steal takes half of a random victim's packets from the head end,
// keeping one for the caller. A single failed pass over a random starting
// point returns nil.
func (w *Worker) steal() *Packet {
	n := w.pool.shards.Len()
	if n <= 1 {
		return nil
	}
	start := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		vIdx := (start + i) % n
		if vIdx == w.idx {
			continue
		}
		victim := w.pool.shards.Get(vIdx)
		if !victim.mu.TryLock() { // never block on a victim
			continue
		}
		take := victim.dq.Len() / 2
		if take == 0 {
			victim.mu.Unlock()
			continue
		}
		grabbed := make([]*Packet, 0, take)
		for j := 0; j < take; j++ {
			pkt, ok := victim.dq.PopFront() // steal from the head
			if !ok {
				break
			}
			grabbed = append(grabbed, pkt)
		}
		victim.mu.Unlock()
		if len(grabbed) == 0 {
			continue
		}
		s := w.shard
		s.mu.Lock()
		for _, pkt := range grabbed[1:] {
			s.dq.PushBack(pkt)
		}
		s.mu.Unlock()
		return grabbed[0]
	}
	return nil
}

// SetFlags attaches the runtime's telemetry enable word; the pool's
// get-path counters are dead until this is called (and cost one nil check
// per Get even then).
func (p *Pool) SetFlags(f *telemetry.Flags) { p.tel = f }

// TelemetrySnap sums the per-shard counters into the pool's snapshot
// slice (reader-side cost; see PoolSnap).
func (p *Pool) TelemetrySnap() telemetry.PoolSnap {
	s := telemetry.PoolSnap{Allocated: p.allocated.Load(), Available: int64(p.Available())}
	for i, n := 0, p.shards.Len(); i < n; i++ {
		sh := p.shards.Get(i)
		s.Gets += sh.statGets.Load()
		s.Bounces += sh.statBounces.Load()
		s.Steals += sh.statSteals.Load()
		s.Exhausted += sh.statEmpty.Load()
	}
	return s
}

// Allocated reports the total packets ever created in the pool.
func (p *Pool) Allocated() int64 { return p.allocated.Load() }

// Available counts packets currently in deques (diagnostic; takes every
// shard lock).
func (p *Pool) Available() int {
	total := 0
	n := p.shards.Len()
	for i := 0; i < n; i++ {
		s := p.shards.Get(i)
		s.mu.Lock()
		total += s.dq.Len()
		s.mu.Unlock()
		if s.cached.Load() != nil {
			total++
		}
	}
	return total
}

// Slabs of closed pools are kept for the next worker in the process that
// needs one of the same size: a runtime set up after another one closed
// reuses that runtime's packet memory instead of zeroing or faulting in
// fresh pages. A packet's bytes are always written before they are read,
// so a reused slab needs no clearing. Each size is a sync.Pool, so a slab
// nobody takes is freed within two garbage collections.
var slabs sync.Map // slab length → *sync.Pool of *[]byte

func slabsOf(n int) *sync.Pool {
	sp, _ := slabs.LoadOrStore(n, new(sync.Pool))
	return sp.(*sync.Pool)
}

func takeSlab(n int) []byte {
	if b, ok := slabsOf(n).Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, n)
}

// Close empties the pool and hands its slabs on for reuse; Get returns nil
// from then on. The caller guarantees that no packet outside the deques
// will be touched again: the endpoints the pool's packets were posted to
// are closed, and nothing gets, puts or reads a packet of the pool any
// more.
func (p *Pool) Close() {
	for i, n := 0, p.shards.Len(); i < n; i++ {
		s := p.shards.Get(i)
		s.mu.Lock()
		s.dq = mpmc.Deque[*Packet]{}
		s.cached.Store(nil)
		slab := s.slab
		s.slab = nil
		s.mu.Unlock()
		if slab != nil {
			slabsOf(len(slab)).Put(&slab)
		}
	}
}
