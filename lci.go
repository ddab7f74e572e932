// Package lci is a Go reproduction of LCI — the Lightweight Communication
// Interface for efficient asynchronous multithreaded communication
// (Yan & Snir, SC '25). It provides the paper's concise interface: common
// point-to-point primitives (send/receive, active messages, RMA put/get
// with and without notification) in a unified PostComm operation, diverse
// completion mechanisms (counters, synchronizers, completion queues,
// handlers, completion graphs), explicit progress, and explicit,
// incrementally tunable communication resources (devices, packet pools,
// matching engines, backlog queues).
//
// The runtime underneath is built on atomic data structures, fine-grained
// non-blocking locks, and the network-layer insights of the paper's §5,
// over a simulated InfiniBand (libibverbs) or Slingshot-11 (libfabric)
// provider — see DESIGN.md for the substitution map.
//
// # Quick start
//
// The shortest useful program is an active message into a remote handler:
// every rank registers a handler (symmetric registration order makes the
// handle agree across ranks), rank 0 posts an AM at it, and the peer's
// progress engine invokes the handler inline on arrival:
//
//	world := lci.NewWorld(2)
//	defer world.Close()
//	world.Launch(func(rt *lci.Runtime) error {
//		peer := 1 - rt.Rank()
//		done := make(chan string, 1)
//		rcomp := rt.RegisterHandler(func(st lci.Status) {
//			// Buffer is valid only during the call: copy to retain.
//			done <- string(st.Buffer)
//		})
//		rt.Barrier()
//		if rt.Rank() == 0 {
//			for st, _ := rt.PostAM(peer, []byte("hello"), rcomp); st.IsRetry(); {
//				rt.Progress()
//				st, _ = rt.PostAM(peer, []byte("hello"), rcomp)
//			}
//			return rt.Barrier()
//		}
//		for {
//			rt.Progress()
//			select {
//			case msg := <-done:
//				_ = msg
//				return rt.Barrier()
//			default:
//			}
//		}
//	})
//
// Two-sided send/receive works the same way with PostSend/PostRecv and a
// completion object (queue, counter, sync) in place of the handler.
// Optional arguments are Option values — Go's equivalent of the paper's
// C++ named-parameter idiom (§4.1): start with the plain call and refine
// it in any order, e.g.
//
//	rt.PostAM(peer, buf, rcomp, lci.WithTag(7), lci.WithDevice(dev))
//	rt.PostSend(peer, buf, tag, cq, lci.WithDevice(dev), lci.WithMatchingEngine(me))
package lci

import (
	"errors"
	"fmt"
	"sync"

	"lci/internal/base"
	"lci/internal/coll"
	"lci/internal/comp"
	"lci/internal/core"
	"lci/internal/fault"
	"lci/internal/netsim/fabric"
	"lci/internal/packet"
	"lci/internal/topo"
)

// Re-exported vocabulary types. See package base for details.
type (
	// Status is the completion descriptor returned by posting operations
	// and delivered to completion objects.
	Status = base.Status
	// Comp is the completion-object interface.
	Comp = base.Comp
	// RComp is a remote completion handle.
	RComp = base.RComp
	// Direction selects the data movement direction for PostComm.
	Direction = base.Direction
	// MatchingPolicy selects how sends and receives match.
	MatchingPolicy = base.MatchingPolicy
)

// Re-exported completion objects.
type (
	// Counter counts signals (atomic integer).
	Counter = comp.Counter
	// Sync is the synchronizer: ready after N signals.
	Sync = comp.Sync
	// Handler invokes a function on each signal.
	Handler = comp.Handler
	// CQ is the completion queue.
	CQ = comp.Queue
	// Graph is the completion graph (partial-order execution).
	Graph = comp.Graph
	// NodeID names a completion-graph node.
	NodeID = comp.NodeID
)

// Re-exported resources.
type (
	// Device encapsulates a set of low-level network resources.
	Device = core.Device
	// Affinity pins a goroutine to one pool device plus its own packet
	// worker (Runtime.RegisterThread).
	Affinity = core.Affinity
	// MatchEngine is an allocated matching engine.
	MatchEngine = core.MatchEngine
	// Worker is a packet-pool worker handle (one per goroutine).
	Worker = packet.Worker
	// RemoteBuffer names registered remote memory for RMA.
	RemoteBuffer = core.RemoteBuffer
	// Topology is a host NUMA topology (domains, core→domain map,
	// inter-domain distances); see WithTopology.
	Topology = topo.Topology
	// Placement is the resource-placement policy consulted for
	// multi-domain topologies; see WithPlacement.
	Placement = core.Placement
)

// Placement policies.
var (
	// PlaceLocal is the default placement: devices spread over domains,
	// threads pin to same-domain devices.
	PlaceLocal Placement = core.LocalPlacement{}
	// PlaceWorst is the measurement adversary: threads pin to the
	// farthest domain's devices (placement-quality gates compare
	// PlaceLocal against it).
	PlaceWorst Placement = core.WorstPlacement{}
)

// Synthetic topologies (DESIGN.md §3).
var (
	// TopoUniform builds `domains` NUMA domains of coresPerDomain cores
	// each with uniform remote distances.
	TopoUniform = topo.Uniform
	// TopoSimDelta is the 2-domain NCSA Delta node layout.
	TopoSimDelta = topo.SimDelta
	// TopoSimExpanse is the 4-domain SDSC Expanse node layout.
	TopoSimExpanse = topo.SimExpanse
)

// Status states and retry reasons.
const (
	Done   = base.Done
	Posted = base.Posted
	Retry  = base.Retry

	Out = base.Out
	In  = base.In

	MatchRankTag  = base.MatchRankTag
	MatchRankOnly = base.MatchRankOnly
	MatchTagOnly  = base.MatchTagOnly
	MatchNone     = base.MatchNone

	AnyTag    = base.AnyTag
	AnySource = base.AnySource

	InvalidRComp = base.InvalidRComp
)

// Errors re-exported from the runtime core.
var (
	ErrInvalidArgument = core.ErrInvalidArgument
	ErrTooLarge        = core.ErrTooLarge
	ErrClosed          = core.ErrClosed
)

// NewCQ allocates an unbounded (LCRQ-style) completion queue.
func NewCQ() *CQ { return comp.NewQueue() }

// NewFixedCQ allocates a bounded fetch-and-add-array completion queue.
func NewFixedCQ(capacity int) *CQ { return comp.NewFixedQueue(capacity) }

// NewCounter allocates a counter completion object.
func NewCounter() *Counter { return comp.NewCounter() }

// NewSync allocates a synchronizer expecting n signals.
func NewSync(n int) *Sync { return comp.NewSync(n) }

// NewGraph allocates a completion graph.
func NewGraph() *Graph { return comp.NewGraph() }

// World is a simulated cluster: a fabric plus per-rank runtime
// configuration. It replaces process launch + PMI bootstrap for the
// in-process simulation (DESIGN.md §2 lists the substitution).
type World struct {
	fab      *fabric.Fabric
	coreCfg  core.Config
	platform Platform
	n        int

	// topoOverride/placeOverride/telOverride hold WithTopology/
	// WithPlacement/WithTelemetry choices and are overlaid onto coreCfg
	// after all options ran, so option order (e.g. WithRuntimeConfig
	// last) cannot silently discard them.
	topoOverride  *Topology
	placeOverride Placement
	telOverride   *TelemetryConfig

	// inj is the WithFaultInjector choice, installed on the fabric at
	// NewWorld, before any runtime reads it (faults.go).
	inj *fault.Injector

	// mu guards rts, the runtimes built from this world; Close finalizes
	// the ones still open.
	mu  sync.Mutex
	rts []*Runtime
}

// NewWorld creates an n-rank world. Options select the simulated platform
// and runtime parameters.
func NewWorld(n int, opts ...WorldOption) *World {
	w := &World{platform: SimExpanse(), n: n}
	for _, o := range opts {
		o(w)
	}
	if w.topoOverride != nil {
		w.coreCfg.Topology = w.topoOverride
	}
	if w.placeOverride != nil {
		w.coreCfg.Placement = w.placeOverride
	}
	if w.telOverride != nil {
		w.coreCfg.Telemetry = *w.telOverride
	}
	w.fab = fabric.New(fabric.Config{
		NumRanks:   n,
		PendingCap: w.platform.PendingCap,
		Topo:       w.coreCfg.Topology,
	})
	if w.inj != nil {
		w.fab.SetInjector(w.inj)
	}
	return w
}

// WorldOption configures a World.
type WorldOption func(*World)

// WithPlatform selects the simulated platform (SimExpanse or SimDelta).
func WithPlatform(p Platform) WorldOption {
	return func(w *World) { w.platform = p }
}

// WithRuntimeConfig overrides the per-rank runtime configuration.
func WithRuntimeConfig(cfg core.Config) WorldOption {
	return func(w *World) { w.coreCfg = cfg }
}

// WithTopology attaches a host NUMA topology to every rank of the world:
// the placement policy binds each pool device (and its packet-worker
// slab) to a domain, RegisterThread resolves the calling thread's domain
// and pins it to a local device, unpinned striping prefers same-domain
// devices, and the provider simulations charge the cross-domain access
// penalty, making placement quality measurable. A nil or single-domain
// topology keeps all of this inert. The choice survives option order:
// a later WithRuntimeConfig does not discard it.
func WithTopology(t *Topology) WorldOption {
	return func(w *World) { w.topoOverride = t }
}

// WithPlacement overrides the placement policy used with WithTopology
// (default PlaceLocal). Like WithTopology it survives option order.
func WithPlacement(p Placement) WorldOption {
	return func(w *World) { w.placeOverride = p }
}

// NumRanks returns the world size.
func (w *World) NumRanks() int { return w.n }

// Fabric exposes the underlying simulated fabric (diagnostics).
func (w *World) Fabric() *fabric.Fabric { return w.fab }

// Platform returns the world's platform description.
func (w *World) Platform() Platform { return w.platform }

// Close finalizes every runtime built from this world that is still
// open, joining their errors. Runtime.Close is idempotent, so the usual
// sequences — Launch (which closes each rank's runtime when its body
// returns) followed by a deferred world Close, or explicit per-rank
// Closes plus this one — are all safe. Close itself is idempotent.
func (w *World) Close() error {
	w.mu.Lock()
	rts := w.rts
	w.rts = nil
	w.mu.Unlock()
	errs := make([]error, len(rts))
	for i, rt := range rts {
		errs[i] = rt.Close()
	}
	return errors.Join(errs...)
}

// NewRuntime builds the runtime for one rank (g_runtime_init's moral
// equivalent; multiple runtimes per process are the normal case here).
func (w *World) NewRuntime(rank int) (*Runtime, error) {
	if rank < 0 || rank >= w.n {
		return nil, fmt.Errorf("%w: rank %d out of range [0,%d)", ErrInvalidArgument, rank, w.n)
	}
	crt, err := core.NewRuntime(w.platform.Provider, w.fab, rank, w.coreCfg)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{core: crt, coll: coll.New(crt)}
	w.mu.Lock()
	w.rts = append(w.rts, rt)
	w.mu.Unlock()
	return rt, nil
}

// Launch runs body once per rank, each on its own goroutine, and waits for
// all of them. The first error (if any) is returned, joined with any
// others.
func (w *World) Launch(body func(rt *Runtime) error) error {
	rts := make([]*Runtime, w.n)
	for i := range rts {
		rt, err := w.NewRuntime(i)
		if err != nil {
			return err
		}
		rts[i] = rt
	}
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	for i := range rts {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer rts[rank].Close()
			errs[rank] = body(rts[rank])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Runtime is one rank's LCI runtime.
type Runtime struct {
	core *core.Runtime

	// coll is the rank's collectives context (internal/coll), allocated
	// first so its dedicated matching engine's wire id is identical on
	// every rank. Collectives must be issued in the same order on every
	// rank and never concurrently from several threads of one rank.
	coll *coll.Comm
}

// Rank returns this runtime's rank (get_rank_me).
func (rt *Runtime) Rank() int { return rt.core.Rank() }

// NumRanks returns the world size (get_rank_n).
func (rt *Runtime) NumRanks() int { return rt.core.NumRanks() }

// Close finalizes the runtime.
func (rt *Runtime) Close() error { return rt.core.Close() }

// Core exposes the underlying core runtime (benchmark harness use).
func (rt *Runtime) Core() *core.Runtime { return rt.core }

// NewDevice allocates a device (alloc_device) and adds it to the pool.
func (rt *Runtime) NewDevice() (*Device, error) { return rt.core.NewDevice() }

// DefaultDevice returns the runtime's default device (pool device 0).
func (rt *Runtime) DefaultDevice() *Device { return rt.core.DefaultDevice() }

// NumDevices returns the size of the runtime's device pool (configured
// with core.Config.NumDevices, plus any allocated with NewDevice).
func (rt *Runtime) NumDevices() int { return rt.core.NumDevices() }

// Device returns pool device i; symmetric jobs reach the peer's i-th
// device by posting on their own i-th device.
func (rt *Runtime) Device(i int) *Device { return rt.core.Device(i) }

// RegisterThread pins the calling goroutine to a pool device (round-robin
// over the pool) and registers a packet-pool worker for it. Pass the
// handle to posting calls with WithAffinity; unpinned posts stripe
// round-robin across the pool instead.
func (rt *Runtime) RegisterThread() *Affinity { return rt.core.RegisterThread() }

// RegisterThreadOn pins the calling goroutine to pool device idx
// (topology-oblivious; the worker stays domain-unbound).
func (rt *Runtime) RegisterThreadOn(idx int) *Affinity { return rt.core.RegisterThreadOn(idx) }

// RegisterThreadAt pins the calling goroutine as if it ran on topology
// core `core`: the placement policy resolves the core's domain and picks
// a local pool device (WithTopology). Cores outside the topology fall
// back to the plain round-robin assignment.
func (rt *Runtime) RegisterThreadAt(core int) *Affinity { return rt.core.RegisterThreadAt(core) }

// NewMatchingEngine allocates a matching engine (0 buckets = default
// size). All ranks must allocate engines in the same order.
func (rt *Runtime) NewMatchingEngine(buckets int) *MatchEngine {
	return rt.core.NewMatchingEngine(buckets)
}

// RegisterWorker registers a packet-pool worker for the calling
// goroutine; pass it to posting calls with WithWorker for local packet
// traffic.
func (rt *Runtime) RegisterWorker() *Worker { return rt.core.RegisterWorker() }

// RegisterRComp is the unified remote-completion registration API
// (register_rcomp): it accepts either a completion object (Comp — queue,
// counter, sync, graph node), registered in the completion-object registry
// and signaled on delivery, or a handler function (func(Status) or
// Handler), installed in the remote-handler table and invoked inline by
// the destination's progress engine. Both return an RComp that peers name
// with PostAM / WithRemoteComp. Any other target type panics.
//
// Function targets get first-class handler dispatch — zero-copy eager
// payload delivery, no completion-object indirection, epoch-safe
// deregistration — and must follow the handler-context rules documented on
// RegisterHandler.
func (rt *Runtime) RegisterRComp(target any) RComp {
	switch v := target.(type) {
	case nil:
		panic("lci: RegisterRComp requires a completion object or handler function")
	case func(Status):
		return rt.core.RegisterHandler(v)
	case Handler:
		return rt.core.RegisterHandler(v)
	case Comp:
		return rt.core.RegisterRComp(v)
	default:
		panic(fmt.Sprintf("lci: RegisterRComp: unsupported target type %T", target))
	}
}

// RegisterHandler installs fn in the runtime's remote-handler table and
// returns the handle peers address it by — the paper's
// LCI_COMPLETION_HANDLER as a first-class remote target. The handler fires
// inside the progress engine of whichever device the message arrives on,
// with the payload delivered zero-copy for eager messages: Status.Buffer
// is valid only for the duration of the call (copy to retain). Rendezvous
// payloads arrive in a buffer from the registered AM allocator (plain make
// by default; the handler may retain it unless the allocator's Free hook
// reclaims it).
//
// Handler-context rules: a handler must not block or spin on progress (it
// runs under the device's poll lock); it may post new operations, best
// with WithNoRetry so transient failures divert to the backlog queue; and
// a handler that signals a completion graph should have the graph's
// deferred-ops mode enabled (Graph.SetDeferOps) so ready op nodes queue to
// the graph owner instead of posting from poller context.
func (rt *Runtime) RegisterHandler(fn func(Status)) RComp {
	return rt.core.RegisterHandler(fn)
}

// DeregisterRComp releases a remote completion handle of either kind.
// Completion-object handles drop later signals; handler handles are
// invalidated epoch-safely — AMs still in flight when the call returns are
// dropped on arrival, and the slot can be reused without them aliasing the
// new occupant.
func (rt *Runtime) DeregisterRComp(rc RComp) { rt.core.DeregisterRComp(rc) }

// AMAllocator supplies receive-side buffers for rendezvous AM payloads;
// see SetAMAllocator.
type AMAllocator = core.AMAllocator

// SetAMAllocator registers the allocator consulted for rendezvous AM
// payloads bound for handler targets: Alloc runs in the poller when the
// RTS arrives, and Free (optional) reclaims the buffer after the handler
// returns, enabling pooled slabs. nil restores the default plain-make
// behavior, under which the handler owns the delivered buffer.
func (rt *Runtime) SetAMAllocator(a *AMAllocator) { rt.core.SetAMAllocator(a) }

// RegisterMemory registers buf for RMA on a device (nil = default) and
// returns the rkey a peer needs to address it.
func (rt *Runtime) RegisterMemory(d *Device, buf []byte) (uint64, error) {
	return rt.core.RegisterMemory(d, buf)
}

// DeregisterMemory removes a memory registration.
func (rt *Runtime) DeregisterMemory(d *Device, rkey uint64) error {
	return rt.core.DeregisterMemory(d, rkey)
}

// MaxEager returns the largest payload the eager protocol carries; larger
// messages use the zero-copy rendezvous protocol.
func (rt *Runtime) MaxEager() int { return rt.core.MaxEager() }

// Progress makes one progress round on every pool device (§4.2.7) and
// returns the total completions processed. With a single-device pool this
// is exactly one device round; with striping, completions for unpinned
// operations can land on any pool endpoint, so the generic wait loop must
// cover them all. Threads pinned with RegisterThread progress only their
// own device via Affinity.Progress or ProgressDevice.
func (rt *Runtime) Progress() int { return rt.core.ProgressAll() }

// ProgressDevice makes progress on a specific device; d == nil selects the
// default.
func (rt *Runtime) ProgressDevice(d *Device) int {
	if d == nil {
		d = rt.core.DefaultDevice()
	}
	return d.Progress()
}
