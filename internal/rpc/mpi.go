package rpc

import (
	"fmt"
	"sync/atomic"

	"lci/internal/mpibase"
	"lci/internal/spin"
)

// MPITransport runs the applications over the MPI-like baseline: payloads
// travel as Isend messages matched by pools of pre-posted wildcard-source
// Irecvs, the standard way AM-style communication is layered on MPI. With
// VCIs enabled (the paper's mpix), thread t's traffic uses communicator t
// and thus its own VCI; without them everything serializes on the single
// global critical section.
//
// The paper's Figure 8 additionally replicates MPI request pools per
// thread to reduce completion-polling contention; the per-thread receive
// pools here play that role.
type MPITransport struct {
	m        *mpibase.MPI
	nthreads int
	sink     func(int, []byte)
	pools    []*recvPool
	maxMsg   int

	// sendMu serializes Isend bookkeeping per thread (requests are
	// fire-and-forget but we cap outstanding ones).
	lanes []*sendLane
}

type recvPool struct {
	mu    spin.Mutex
	slots []poolSlot
	_     spin.Pad
}

type poolSlot struct {
	req *mpibase.Request
	buf []byte
}

type sendLane struct {
	mu   spin.Mutex
	outs []*mpibase.Request
	_    spin.Pad
}

const (
	rpcTag        = 7
	poolDepth     = 32
	maxLaneQueued = 512
)

// NewMPITransport builds the transport for one rank with nthreads worker
// threads. vcis enables the per-thread VCI layout (the paper's mpix).
func NewMPITransport(m *mpibase.MPI, nthreads int, maxMsg int) (*MPITransport, error) {
	if maxMsg <= 0 {
		maxMsg = 8192
	}
	t := &MPITransport{m: m, nthreads: nthreads, maxMsg: maxMsg}
	for tid := 0; tid < nthreads; tid++ {
		p := &recvPool{}
		for k := 0; k < poolDepth; k++ {
			buf := make([]byte, maxMsg)
			req, err := m.Irecv(buf, mpibase.AnySource, rpcTag, tid%maxComm(m, nthreads))
			if err != nil {
				return nil, err
			}
			p.slots = append(p.slots, poolSlot{req: req, buf: buf})
		}
		t.pools = append(t.pools, p)
		t.lanes = append(t.lanes, &sendLane{})
	}
	return t, nil
}

// maxComm bounds communicator ids to the VCI count so single-VCI (mpi)
// instances funnel everything through communicator 0.
func maxComm(m *mpibase.MPI, nthreads int) int {
	if m.NumVCIs() == 1 {
		return 1
	}
	return nthreads
}

func (t *MPITransport) Rank() int                    { return t.m.Rank() }
func (t *MPITransport) NumRanks() int                { return t.m.NumRanks() }
func (t *MPITransport) SetSink(fn func(int, []byte)) { t.sink = fn }

// maxPayload is the largest Send payload: the pre-posted receive size.
func (t *MPITransport) maxPayload() int { return t.maxMsg }

func (t *MPITransport) comm(tid int) int { return tid % maxComm(t.m, t.nthreads) }

// Send transmits payload to dst. MPI has no retry status; injection
// blocks inside the library when resources are exhausted (§4.2.5).
func (t *MPITransport) Send(dst int, payload []byte, tid int) {
	if len(payload) > t.maxMsg {
		panic(fmt.Sprintf("rpc/mpi: payload %d exceeds max %d", len(payload), t.maxMsg))
	}
	lane := t.lanes[tid]
	req := t.m.Isend(payload, dst, rpcTag, t.comm(tid))
	lane.mu.Lock()
	lane.outs = append(lane.outs, req)
	// Retire completed requests from the front; bound the queue.
	for len(lane.outs) > 0 && lane.outs[0].Done() {
		lane.outs = lane.outs[1:]
	}
	tooMany := len(lane.outs) > maxLaneQueued
	lane.mu.Unlock()
	for tooMany {
		t.m.ProgressVCI(t.comm(tid), rpcTag)
		lane.mu.Lock()
		for len(lane.outs) > 0 && lane.outs[0].Done() {
			lane.outs = lane.outs[1:]
		}
		tooMany = len(lane.outs) > maxLaneQueued
		lane.mu.Unlock()
	}
}

var servePass atomic.Int64

// Serve progresses thread tid's VCI and delivers completed receives.
func (t *MPITransport) Serve(tid int) int {
	t.m.ProgressVCI(t.comm(tid), rpcTag)
	p := t.pools[tid]
	n := 0
	if !p.mu.TryLock() {
		return 0
	}
	for i := range p.slots {
		s := &p.slots[i]
		if !s.req.Done() {
			continue
		}
		t.sink(s.req.Source, s.buf[:s.req.Len])
		req, err := t.m.Irecv(s.buf, mpibase.AnySource, rpcTag, t.comm(tid))
		if err != nil {
			p.mu.Unlock()
			panic(fmt.Sprintf("rpc/mpi: repost: %v", err))
		}
		s.req = req
		n++
	}
	p.mu.Unlock()
	_ = servePass.Add(1)
	return n
}
