// Package rpc provides the application-level communication backends used
// by the paper's two application benchmarks. It is the moral equivalent
// of the HPX parcelport / HipMer communication layer: a tiny RPC
// abstraction with aggregated payload delivery.
package rpc

import (
	"fmt"
	"sync/atomic"

	"lci"
	"lci/internal/gasnetsim"
	"lci/internal/netsim/nic"
)

// Transport is the application-level RPC substrate shared by the k-mer
// mini-app (§6.3) and the AMT mini-app (§6.4): blocking batch sends plus
// a serve call that delivers arrived payloads to the registered sink.
// Implementations mirror the paper's backends: LCI (per-thread devices,
// shared completion queue), GASNet-EX-like (shared endpoint,
// handler-in-poll), and MPI-like (Isend + pre-posted Irecv pools, with or
// without VCIs).
type Transport interface {
	Rank() int
	NumRanks() int
	// SetSink registers the payload handler. Must be called once before
	// any traffic; the sink must be thread-safe.
	SetSink(func(src int, payload []byte))
	// Send transmits payload to dst from worker thread tid, progressing
	// internally until the injection succeeds. The payload is copied.
	Send(dst int, payload []byte, tid int)
	// Serve processes available incoming batches on worker thread tid and
	// returns how many were handled.
	Serve(tid int) int
}

// ---------------------------------------------------------------------------
// LCI transport

// LCITransport runs the mini-app over this repository's LCI library as a
// thin wrapper over core active messages: one remote handler delivers
// every incoming RPC straight to the sink from inside device progress (no
// transport-owned dispatch queue or matching loop), with one device per
// worker thread. Any thread still serves any RPC that arrives on its
// device — the load-balance property of §6.3 — the dispatch hop through a
// shared completion queue is just gone.
type LCITransport struct {
	rt     *lci.Runtime
	rcomp  lci.RComp
	devs   []*lci.Device
	sink   atomic.Pointer[func(int, []byte)]
	served atomic.Int64

	// Record path (set up by Records → initRecords): the internal/agg
	// coalescing layer over the same device pool, one aggregation
	// thread handle per worker thread, bound to that worker's device.
	agg *lci.Aggregator
	ths []*lci.AggThread
}

// NewLCITransport builds the transport for one rank with nthreads worker
// threads. Ranks must construct transports symmetrically.
func NewLCITransport(rt *lci.Runtime, nthreads int) (*LCITransport, error) {
	t := &LCITransport{rt: rt}
	t.rcomp = rt.RegisterHandler(func(st lci.Status) {
		// Handler payloads are transient (valid only during the call); the
		// mini-app sinks parse synchronously, which is exactly the GASNet
		// medium-AM contract the paper's backends share.
		(*t.sink.Load())(st.Rank, st.Buffer)
		t.served.Add(1)
	})
	for i := 0; i < nthreads; i++ {
		dev := rt.DefaultDevice()
		if i > 0 {
			var err error
			if dev, err = rt.NewDevice(); err != nil {
				return nil, err
			}
		}
		t.devs = append(t.devs, dev)
	}
	return t, nil
}

func (t *LCITransport) Rank() int                    { return t.rt.Rank() }
func (t *LCITransport) NumRanks() int                { return t.rt.NumRanks() }
func (t *LCITransport) SetSink(fn func(int, []byte)) { t.sink.Store(&fn) }

func (t *LCITransport) Send(dst int, payload []byte, tid int) {
	dev := t.devs[tid]
	for {
		// Posting uses the device's own packet-pool worker: one worker
		// per device keeps packet traffic thread-local without a second
		// set of per-thread packet quotas.
		st, err := t.rt.PostAM(dst, payload, t.rcomp, lci.WithDevice(dev))
		if err != nil {
			panic(fmt.Sprintf("rpc/lci: PostAM: %v", err))
		}
		if !st.IsRetry() {
			return
		}
		t.Serve(tid)
	}
}

func (t *LCITransport) Serve(tid int) int {
	before := t.served.Load()
	if t.agg != nil {
		// Polling through the aggregator progresses the same device and
		// additionally advances the age-flush epoch and retries pending
		// (transmit-queue-refused) batches for this thread's column.
		t.agg.Poll(t.ths[tid])
	} else {
		t.devs[tid].Progress()
	}
	return int(t.served.Load() - before)
}

// ---------------------------------------------------------------------------
// GASNet transport

// GASNetTransport runs the mini-app over the GASNet-EX-like baseline: a
// single shared endpoint; the AM handler invokes the sink inline during
// Poll (GASNet's AM progress semantics).
type GASNetTransport struct {
	g    *gasnetsim.GASNet
	hidx int
	sink func(int, []byte)
}

// NewGASNetTransport builds the transport for the rank of dom.
func NewGASNetTransport(dom *nic.Domain) *GASNetTransport {
	t := &GASNetTransport{}
	t.g = gasnetsim.New(dom, gasnetsim.Config{PreRecvs: 512})
	t.hidx = t.g.RegisterHandler(func(src int, _ uint32, payload []byte) {
		// The medium-AM buffer is only valid during the handler; the sink
		// must consume it synchronously (ours does).
		t.sink(src, payload)
	})
	return t
}

func (t *GASNetTransport) Rank() int                    { return t.g.Rank() }
func (t *GASNetTransport) NumRanks() int                { return t.g.NumRanks() }
func (t *GASNetTransport) SetSink(fn func(int, []byte)) { t.sink = fn }

func (t *GASNetTransport) Send(dst int, payload []byte, tid int) {
	t.g.RequestMedium(dst, t.hidx, 0, payload)
}

func (t *GASNetTransport) Serve(int) int { return t.g.Poll() }

// maxPayload is the largest Send payload: one medium AM.
func (t *GASNetTransport) maxPayload() int { return t.g.MaxMedium() }
