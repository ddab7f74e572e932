package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"lci/internal/base"
	"lci/internal/comp"
	"lci/internal/fault"
	"lci/internal/matching"
	"lci/internal/mpmc"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/network"
	"lci/internal/packet"
	"lci/internal/telemetry"
	"lci/internal/topo"
)

// Errors reported by posting operations. Temporary conditions are NOT
// errors — they come back as Retry statuses (§4.2.5); these errors are
// programming mistakes.
var (
	ErrInvalidArgument = errors.New("lci: invalid argument")
	ErrTooLarge        = errors.New("lci: message exceeds the maximum size")
	ErrClosed          = errors.New("lci: runtime is closed")
	// ErrTimeout reports a rendezvous handshake that exhausted its
	// retransmit budget (Config.RendezvousTimeoutEpochs /
	// RendezvousMaxAttempts). It is delivered through the operation's
	// completion object, not returned from the post.
	ErrTimeout = errors.New("lci: rendezvous timed out")
	// ErrPeerDead re-exports the network-layer verdict for operations
	// naming a failed rank, so core callers need one import.
	ErrPeerDead = network.ErrPeerDead
)

// Config configures a runtime. The zero value of every field selects the
// default.
type Config struct {
	// PacketSize is the packet-pool buffer size; it bounds the eager
	// protocol at PacketSize-32 bytes of payload (default 8192).
	PacketSize int
	// InjectSize is the largest message completing immediately at the
	// sender (default 64).
	InjectSize int
	// PreRecvs is the number of pre-posted receives kept per device
	// (default 128).
	PreRecvs int
	// PacketsPerWorker is each registered worker's packet quota
	// (default 1024). It must exceed PreRecvs: NewRuntime rejects a quota
	// that the pre-posted receive window would use up.
	PacketsPerWorker int
	// MatchBuckets is the default matching engine's bucket count. The
	// paper's C++ implementation defaults to 65536; the simulation
	// defaults to 4096 because a benchmark process hosts many runtimes
	// (one per simulated rank).
	MatchBuckets int
	// MaxMessageSize bounds a single message (default 1 GiB).
	MaxMessageSize int
	// NumDevices is the size of the runtime's device pool (default 1).
	// Every pool device owns a full set of network resources — fabric
	// endpoint, CQ, pre-posted receives, backlog queue — so posts on
	// different devices never serialize on each other (§4.2.3). Threads
	// pin to a pool device with RegisterThread; unpinned posts stripe
	// round-robin across the pool.
	NumDevices int
	// Topology models the host's NUMA layout (domains, core→domain map,
	// inter-domain distances). When set to a multi-domain topology, the
	// Placement policy binds each pool device's resources to a domain,
	// RegisterThread resolves the calling thread's domain and pins it to
	// a local device, and unpinned striping prefers same-domain devices.
	// Nil (or a single-domain topology) keeps every locality mechanism
	// inert: the pool behaves exactly like the locality-oblivious
	// round-robin pool.
	Topology *topo.Topology
	// Placement is the resource-placement policy consulted when Topology
	// has multiple domains (default LocalPlacement). WorstPlacement is
	// the measurement adversary used by the NUMA placement gates.
	Placement Placement
	// Telemetry selects the runtime's initial observability state. The
	// zero value is the default: per-layer counters and latency
	// histograms on, lifecycle trace off (telemetry.Config).
	Telemetry telemetry.Config
	// RendezvousTimeoutEpochs arms the rendezvous handshake timeout: an
	// RTS (sender) or RTR (receiver) outstanding for this many epochs is
	// retransmitted, up to RendezvousMaxAttempts, after which the
	// operation error-completes with ErrTimeout. An epoch is at least
	// 20 µs of monotonic time during which the device was progressed (the
	// clock moves on a progress round, at most once per 20 µs), checked
	// every 64 epochs; so 128 epochs is a timeout of about 2.6–3.8 ms.
	// 0 (the default) disables timeouts entirely — a legitimately late
	// PostRecv may park an RTS arbitrarily long, so only fault-tolerant
	// workloads (and the chaos gates) opt in.
	RendezvousTimeoutEpochs int
	// RendezvousMaxAttempts caps handshake retransmissions per operation
	// (default 8 when timeouts are enabled).
	RendezvousMaxAttempts int
}

func (c Config) withDefaults() Config {
	if c.PacketSize <= 0 {
		c.PacketSize = packet.DefaultPacketSize
	}
	if c.InjectSize <= 0 {
		c.InjectSize = 64
	}
	if c.PreRecvs <= 0 {
		c.PreRecvs = 128
	}
	if c.PacketsPerWorker <= 0 {
		c.PacketsPerWorker = packet.DefaultPacketsPerWorker
	}
	if c.MatchBuckets <= 0 {
		c.MatchBuckets = 4096
	}
	if c.MaxMessageSize <= 0 {
		c.MaxMessageSize = 1 << 30
	}
	if c.NumDevices <= 0 {
		c.NumDevices = 1
	}
	if c.Placement == nil {
		c.Placement = LocalPlacement{}
	}
	if c.RendezvousTimeoutEpochs > 0 && c.RendezvousMaxAttempts <= 0 {
		c.RendezvousMaxAttempts = 8
	}
	if c.PacketSize < headerSize+c.InjectSize {
		panic("core: PacketSize must be at least headerSize+InjectSize")
	}
	return c
}

// Runtime is one rank's LCI runtime instance: default configuration plus
// the communication resources (§4.2.2). Multiple runtimes can exist in one
// process (library composition; and the simulation hosts every rank in one
// process).
type Runtime struct {
	cfg     Config
	netdom  *nic.Domain
	pool    *packet.Pool
	defME   *matching.Engine
	engines *mpmc.Array[*matching.Engine]
	defDev  *Device
	devs    *mpmc.Array[*Device]
	rcomps  *mpmc.Array[base.Comp]
	// handlers is the remote-handler table (internal/core/am.go): the
	// second rcomp namespace, addressed by handles with the handler bit
	// set, whose entries fire inside the poller instead of being signaled.
	handlers *handlerTable
	// amAlloc supplies receive-side buffers for rendezvous AM payloads
	// bound for table handlers (nil = plain make).
	amAlloc atomic.Pointer[AMAllocator]
	rank    int
	nranks  int
	closed  bool
	// fab is the simulated fabric the runtime's devices ride on; the
	// failure-domain machinery reads its installed fault injector (peer
	// liveness, death generation) through it.
	fab *fabric.Fabric
	// tel is the runtime's observability root (internal/telemetry): the
	// per-device counter blocks, latency histograms, and trace rings all
	// register here, and Snapshot reads every layer through it.
	tel *telemetry.Telemetry

	// stripe hands unpinned posts a pool device round-robin; pins counts
	// RegisterThread calls for the same purpose. Pinned threads never
	// touch stripe, so the shared counter only costs posts that opted out
	// of affinity.
	stripe atomic.Uint64
	pins   atomic.Uint64

	// Topology-aware state (allocated only for multi-domain topologies;
	// every field stays nil/unused on the single-domain fast path so the
	// locality-oblivious pool is reproduced byte for byte).
	cores     atomic.Uint64      // virtual-core allocator for RegisterThread
	domPins   []atomic.Uint64    // per-domain RegisterThread counters
	domStripe []atomic.Uint64    // per-domain stripe counters
	domDevs   []*mpmc.Array[int] // pool-device indices per domain
}

// NewRuntime builds a runtime for rank on fab over the simulated provider
// configured by provider.
func NewRuntime(provider nic.Config, fab *fabric.Fabric, rank int, cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	// Every device pre-posts PreRecvs packets from its own worker's quota
	// (NewDevice's replenish), and an unpinned post draws from that same
	// worker or steals from the others, which are drained the same way. A
	// quota that does not exceed the window leaves no packet to send with,
	// so every post would return Retry forever.
	if cfg.PacketsPerWorker <= cfg.PreRecvs {
		return nil, fmt.Errorf("%w: PacketsPerWorker (%d) must exceed PreRecvs (%d)",
			ErrInvalidArgument, cfg.PacketsPerWorker, cfg.PreRecvs)
	}
	netdom := nic.NewDomain(fab, rank, provider)
	rt := &Runtime{
		cfg:      cfg,
		netdom:   netdom,
		fab:      fab,
		pool:     packet.NewPool(cfg.PacketSize, cfg.PacketsPerWorker),
		defME:    matching.New(cfg.MatchBuckets),
		engines:  mpmc.NewArray[*matching.Engine](4),
		devs:     mpmc.NewArray[*Device](4),
		rcomps:   mpmc.NewArray[base.Comp](8),
		handlers: newHandlerTable(),
		rank:     rank,
		nranks:   netdom.NumRanks(),
		tel:      telemetry.New(cfg.Telemetry),
	}
	rt.pool.SetFlags(&rt.tel.Flags)
	rt.tel.RegisterPool(rt.pool.TelemetrySnap)
	if nd := cfg.Topology.Domains(); !cfg.Topology.Single() {
		rt.domPins = make([]atomic.Uint64, nd)
		rt.domStripe = make([]atomic.Uint64, nd)
		rt.domDevs = make([]*mpmc.Array[int], nd)
		for i := range rt.domDevs {
			rt.domDevs[i] = mpmc.NewArray[int](2)
		}
	}
	for i := 0; i < cfg.NumDevices; i++ {
		if _, err := rt.NewDevice(); err != nil {
			return nil, err
		}
	}
	rt.defDev = rt.devs.Get(0)
	return rt, nil
}

// Rank returns this runtime's rank.
func (rt *Runtime) Rank() int { return rt.rank }

// NumRanks returns the number of ranks.
func (rt *Runtime) NumRanks() int { return rt.nranks }

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Telemetry returns the runtime's observability root. Snapshot() on it is
// the one-stop structured view of every layer; the flag methods toggle
// counters, histograms, and the lifecycle trace at runtime.
func (rt *Runtime) Telemetry() *telemetry.Telemetry { return rt.tel }

// DefaultDevice returns the first pool device.
func (rt *Runtime) DefaultDevice() *Device { return rt.defDev }

// NumDevices returns the current size of the device pool (configured
// devices plus any allocated later with NewDevice).
func (rt *Runtime) NumDevices() int { return rt.devs.Len() }

// Device returns pool device i. Devices are indexed in allocation order,
// which is also their wire endpoint index: symmetric jobs reach the
// peer's i-th device by addressing remote device i.
func (rt *Runtime) Device(i int) *Device { return rt.devs.Get(i) }

// stripeDevice picks the pool device for an unpinned post: round-robin
// striping across the pool (§4.2.3's multi-device mode without explicit
// affinity). Single-device pools short-circuit to the default device with
// no shared-counter traffic.
func (rt *Runtime) stripeDevice() *Device {
	n := rt.devs.Len()
	if n == 1 {
		return rt.defDev
	}
	return rt.devs.Get(int(rt.stripe.Add(1) % uint64(n)))
}

// stripeDeviceFrom is stripeDevice for a caller whose NUMA domain is
// known (from its packet worker): it stripes round-robin over the
// caller's same-domain devices first, and falls back to the global
// round-robin stripe when the domain has no devices, is unknown, or the
// topology is single-domain.
func (rt *Runtime) stripeDeviceFrom(dom int) *Device {
	if dom < 0 || dom >= len(rt.domDevs) {
		return rt.stripeDevice()
	}
	locals := rt.domDevs[dom]
	n := locals.Len()
	if n == 0 {
		return rt.stripeDevice()
	}
	seq := rt.domStripe[dom].Add(1) - 1
	return rt.devs.Get(locals.Get(int(seq % uint64(n))))
}

// ProgressAll makes one progress round on every pool device and returns
// the total number of completions processed. With striping, traffic for
// this rank can arrive at any pool endpoint, so a thread waiting on an
// unpinned operation must progress the whole pool.
func (rt *Runtime) ProgressAll() int {
	total := 0
	for i, n := 0, rt.devs.Len(); i < n; i++ {
		total += rt.devs.Get(i).Progress()
	}
	return total
}

// Affinity pins a goroutine to one pool device plus its own packet-pool
// worker. It is the device analogue of RegisterWorker: posting operations
// that carry an Affinity (Options.Affinity) inject and poll only their own
// device's resources, the paper's dedicated-resource mode.
type Affinity struct {
	dev    *Device
	worker *packet.Worker
	domain int // the registering thread's NUMA domain (UnknownDomain unpinned)
	// ring is this thread's lifecycle trace ring: posts carrying the
	// affinity record their events here (single-writer), not on the
	// device's shared ring.
	ring *telemetry.Ring
}

// Device returns the pinned device.
func (a *Affinity) Device() *Device { return a.dev }

// Worker returns the goroutine's packet-pool worker.
func (a *Affinity) Worker() *packet.Worker { return a.worker }

// Domain returns the thread's resolved NUMA domain, or topo.UnknownDomain
// when the registration was topology-oblivious.
func (a *Affinity) Domain() int { return a.domain }

// Progress makes progress on the pinned device with the local worker.
func (a *Affinity) Progress() int { return a.dev.ProgressW(a.worker) }

// RegisterThread pins the calling goroutine to a pool device and registers
// a packet-pool worker for it. With a multi-domain Config.Topology the
// caller is assigned the next virtual core (registration order wraps over
// the topology's cores) and the placement policy resolves its domain and
// picks a local device; otherwise devices are assigned round-robin over
// the pool, so successive registrations spread across all devices. The
// handle is not goroutine-safe; like a packet worker it belongs to one
// goroutine.
func (rt *Runtime) RegisterThread() *Affinity {
	t := rt.cfg.Topology
	if t.Single() {
		n := rt.devs.Len()
		idx := int((rt.pins.Add(1) - 1) % uint64(n))
		return rt.RegisterThreadOn(idx)
	}
	core := int((rt.cores.Add(1) - 1) % uint64(t.NumCores()))
	return rt.RegisterThreadAt(core)
}

// RegisterThreadAt pins the calling goroutine as if it ran on topology
// core `core`: the placement policy resolves the core's domain, picks a
// pool device for it, and the thread's packet-worker slab binds to the
// same domain (so the provider sims can charge cross-domain access).
// A core outside the topology — or a single-domain topology — falls back
// gracefully to the plain round-robin assignment of RegisterThread.
func (rt *Runtime) RegisterThreadAt(core int) *Affinity {
	t := rt.cfg.Topology
	dom := t.DomainOf(core)
	if t.Single() || dom == topo.UnknownDomain {
		n := rt.devs.Len()
		idx := int((rt.pins.Add(1) - 1) % uint64(n))
		return rt.RegisterThreadOn(idx)
	}
	seq := rt.domPins[dom].Add(1) - 1
	idx := rt.cfg.Placement.ThreadDevice(t, dom, seq, rt.deviceDomains())
	if idx < 0 || idx >= rt.devs.Len() {
		idx = int(seq % uint64(rt.devs.Len())) // defensive: policy bug, stay in the pool
	}
	return &Affinity{
		dev: rt.devs.Get(idx), worker: rt.pool.RegisterWorkerIn(dom), domain: dom,
		ring: rt.tel.Trace().NewRing(),
	}
}

// RegisterThreadOn pins the calling goroutine to pool device idx,
// bypassing topology resolution (the worker is domain-unbound, so no
// cross-domain penalty is ever charged for it).
func (rt *Runtime) RegisterThreadOn(idx int) *Affinity {
	return &Affinity{
		dev: rt.devs.Get(idx), worker: rt.pool.RegisterWorker(), domain: topo.UnknownDomain,
		ring: rt.tel.Trace().NewRing(),
	}
}

// deviceDomains snapshots each pool device's bound domain (placement
// input; registration-path only).
func (rt *Runtime) deviceDomains() []int {
	n := rt.devs.Len()
	doms := make([]int, n)
	for i := range doms {
		doms[i] = rt.devs.Get(i).domain
	}
	return doms
}

// injector resolves the fabric's installed fault injector (nil on a
// healthy fabric). One atomic pointer load; safe from any thread.
func (rt *Runtime) injector() *fault.Injector {
	if rt.fab == nil {
		return nil
	}
	return rt.fab.Injector()
}

// allEngines snapshots every matching engine the runtime owns — the
// default plus user-allocated ones — for the peer-death sweep. Control
// path only (it allocates).
func (rt *Runtime) allEngines() []*matching.Engine {
	n := rt.engines.Len()
	out := make([]*matching.Engine, 0, n+1)
	out = append(out, rt.defME)
	for i := 0; i < n; i++ {
		out = append(out, rt.engines.Get(i))
	}
	return out
}

// DefaultMatchingEngine returns the runtime's default matching engine.
func (rt *Runtime) DefaultMatchingEngine() *matching.Engine { return rt.defME }

// MatchEngine is an allocated matching engine plus its wire id, so both
// sides of a communication can name the same engine (§4.2.3).
type MatchEngine struct {
	eng *matching.Engine
	id  uint16
}

// ID returns the engine's wire identifier.
func (m *MatchEngine) ID() uint16 { return m.id }

// Raw exposes the underlying engine (for the resource microbenchmarks).
func (m *MatchEngine) Raw() *matching.Engine { return m.eng }

// NewMatchingEngine allocates a matching engine with the given bucket
// count (0 selects the configured default). Engines must be allocated in
// the same order on all ranks that exchange messages through them, like
// every LCI resource exchanged by handle.
func (rt *Runtime) NewMatchingEngine(buckets int) *MatchEngine {
	if buckets <= 0 {
		buckets = rt.cfg.MatchBuckets
	}
	eng := matching.New(buckets)
	idx := rt.engines.Append(eng)
	return &MatchEngine{eng: eng, id: uint16(idx + 1)}
}

// RegisterWorker registers a packet-pool worker for the calling goroutine.
func (rt *Runtime) RegisterWorker() *packet.Worker { return rt.pool.RegisterWorker() }

// Pool returns the runtime's packet pool.
func (rt *Runtime) Pool() *packet.Pool { return rt.pool }

// RegisterRComp registers c and returns a remote completion handle other
// ranks can address (§4.2.3). Handles are never reused. comp.Handler
// values work here too — the object is boxed and Signal invokes it — but
// RegisterHandler is the first-class route for function targets: its
// handles dispatch through the handler table with no completion-object
// indirection and get zero-copy eager payload delivery.
func (rt *Runtime) RegisterRComp(c base.Comp) base.RComp {
	idx := rt.rcomps.Append(c)
	return base.RComp(idx + 1)
}

// DeregisterRComp clears a handle of either kind — completion object or
// table handler; later signals to it are dropped (handler handles via the
// epoch discipline of DeregisterHandler).
func (rt *Runtime) DeregisterRComp(rc base.RComp) {
	if rc == base.InvalidRComp {
		return
	}
	if rc.IsHandler() {
		rt.handlers.deregister(rc)
		return
	}
	rt.rcomps.Set(int(rc)-1, nil)
}

// lookupRComp resolves a completion-object handle (lock-free, hot path).
// Handler handles resolve through lookupHandler/fireAM instead; their
// indices sit far above any live registry slot, so the bounds check below
// already rejects them and the explicit guard just documents it.
func (rt *Runtime) lookupRComp(rc base.RComp) base.Comp {
	if rc.IsHandler() {
		return nil
	}
	idx := int(rc) - 1
	if idx < 0 || idx >= rt.rcomps.Len() {
		return nil
	}
	return rt.rcomps.Get(idx)
}

// NewCQ allocates an unbounded (LCRQ-style) completion queue.
func (rt *Runtime) NewCQ() *comp.Queue { return comp.NewQueue() }

// NewFixedCQ allocates a bounded fetch-and-add-array completion queue.
func (rt *Runtime) NewFixedCQ(capacity int) *comp.Queue { return comp.NewFixedQueue(capacity) }

// closeDrainRounds bounds the progress rounds Close spends letting
// in-flight completions land before aborting what remains.
const closeDrainRounds = 64

// Close shuts the runtime down. It first drains: a bounded number of
// progress rounds lets completions already in the fabric land. Whatever
// is still in flight afterwards is error-completed with ErrClosed — every
// completion object is signaled exactly once, never leaked.
func (rt *Runtime) Close() error {
	if rt.closed {
		return nil
	}
	for i := 0; i < closeDrainRounds; i++ {
		if rt.ProgressAll() == 0 {
			break
		}
	}
	rt.closed = true
	for i, n := 0, rt.devs.Len(); i < n; i++ {
		rt.devs.Get(i).abortInFlight()
	}
	// Take the endpoints down, so no peer writes into a posted packet
	// again, then hand the packet memory on to the next runtime set up in
	// this process.
	for i, n := 0, rt.devs.Len(); i < n; i++ {
		rt.devs.Get(i).net.Close()
	}
	rt.pool.Close()
	return nil
}

// MaxEager returns the largest payload the eager protocol can carry.
func (rt *Runtime) MaxEager() int { return rt.cfg.PacketSize - headerSize }
