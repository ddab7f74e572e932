package lcw

import (
	"fmt"

	"lci/internal/mpibase"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// amRecvDepth is the number of pre-posted AM receives per thread — the
// paper's "MPI_Isend / pre-posted MPI_Irecv for active messages" scheme.
const amRecvDepth = 16

// maxOutstandingSends bounds in-flight Isends per thread before SendAM
// blocks on the oldest one.
const maxOutstandingSends = 256

// Tags encode the target thread so that threads sharing one communicator
// (the shared-resource mode) never cross-match each other's messages.
func amTagOf(thread int) int { return 2 * thread }
func srTagOf(thread int) int { return 2*thread + 1 }

// newMPIJob builds an LCW job over the MPI-like baseline: standard MPI
// (one VCI) or MPIX (one VCI per thread in dedicated mode). Active
// messages travel as Isends into per-thread pools of pre-posted
// wildcard-source Irecvs. The benchmark assertions of §6.2 (no AnyTag,
// allow overtaking, no global progress) are always applied, as in the
// paper.
func newMPIJob(cfg Config, prov nic.Config) (*Job, error) {
	numVCIs := 1
	if cfg.Kind == MPIX && cfg.Dedicated {
		numVCIs = cfg.ThreadsPerRank
	}
	maxAM, packetSize, preRecvs := cfg.sizing()
	fab := fabric.New(fabric.Config{NumRanks: cfg.Ranks})
	j := &Job{cfg: cfg}
	for r := 0; r < cfg.Ranks; r++ {
		m := mpibase.New(nic.NewDomain(fab, r, prov), mpibase.Config{
			NumVCIs:        numVCIs,
			AssertNoAnyTag: true,
			PacketSize:     packetSize,
			PreRecvs:       preRecvs,
		})
		c := &Comm{rank: r, nranks: cfg.Ranks, maxAM: maxAM}
		for t := 0; t < cfg.ThreadsPerRank; t++ {
			th := &mpiThread{m: m, c: c, idx: t, comm16: t}
			if !cfg.Dedicated {
				// Shared mode: all threads use communicator 0, hence VCI 0.
				th.comm16 = 0
			}
			for k := 0; k < amRecvDepth; k++ {
				buf := make([]byte, maxAM)
				req, err := m.Irecv(buf, mpibase.AnySource, amTagOf(t), th.comm16)
				if err != nil {
					return nil, err
				}
				th.amRecvs = append(th.amRecvs, amSlot{req: req, buf: buf})
			}
			c.threads = append(c.threads, th)
		}
		j.comms = append(j.comms, c)
	}
	return j, nil
}

type amSlot struct {
	req *mpibase.Request
	buf []byte
}

type mpiThread struct {
	m      *mpibase.MPI
	c      *Comm
	idx    int
	comm16 int // communicator: thread index (dedicated) or 0 (shared)

	// amRecvs is the ring of pre-posted AM receives; amHead is the oldest.
	// Eager arrivals match posted receives in post order, so the ring
	// completes from its head.
	amRecvs []amSlot
	amHead  int

	outSends  []*mpibase.Request // in-flight Isends (AM + two-sided)
	sendsDone int64

	outRecvs  []*mpibase.Request // in-flight two-sided Irecvs
	recvsDone int64

	// twoSided is set by the first Send or Recv: from then on progress
	// also covers the VCI the two-sided tag hashes to, which AM-only
	// threads never pay for.
	twoSided bool
}

// reapSends retires completed sends from the front (MPI completes
// in-flight eager sends almost immediately; rendezvous ones when the data
// moves).
func (t *mpiThread) reapSends() {
	for len(t.outSends) > 0 && t.outSends[0].Done() {
		t.outSends = t.outSends[1:]
		t.sendsDone++
	}
}

func (t *mpiThread) reapRecvs() {
	for len(t.outRecvs) > 0 && t.outRecvs[0].Done() {
		t.outRecvs = t.outRecvs[1:]
		t.recvsDone++
	}
}

// isend posts one Isend on the thread's communicator, first blocking
// while maxOutstandingSends are in flight: MPI has no retry status
// (§4.2.5), so the wrapper must block.
func (t *mpiThread) isend(dst int, data []byte, tag int) {
	t.reapSends()
	for len(t.outSends) >= maxOutstandingSends {
		t.progressVCIs()
		t.reapSends()
	}
	t.outSends = append(t.outSends, t.m.Isend(data, dst, tag, t.comm16))
}

// progressVCIs progresses the VCIs this thread's traffic maps to (AM
// and two-sided tags may hash differently).
func (t *mpiThread) progressVCIs() {
	t.m.ProgressVCI(t.comm16, amTagOf(t.idx))
	if t.twoSided {
		t.m.ProgressVCI(t.comm16, srTagOf(t.idx))
	}
}

func (t *mpiThread) SendAM(dst int, data []byte) bool {
	if len(data) > t.c.maxAM {
		panic(fmt.Sprintf("lcw/mpi: AM payload %d exceeds max %d", len(data), t.c.maxAM))
	}
	t.isend(dst, data, amTagOf(t.idx))
	return true
}

// Progress delivers completed AM receives in place, in ring order, and
// reposts each slot.
func (t *mpiThread) Progress() int {
	t.progressVCIs()
	t.reapSends()
	t.reapRecvs()
	n := 0
	for {
		s := &t.amRecvs[t.amHead]
		if !s.req.Done() {
			return n
		}
		t.c.sink(s.req.Source, s.buf[:s.req.Len])
		req, err := t.m.Irecv(s.buf, mpibase.AnySource, amTagOf(t.idx), t.comm16)
		if err != nil {
			panic(fmt.Sprintf("lcw/mpi: repost Irecv: %v", err))
		}
		s.req = req
		t.amHead = (t.amHead + 1) % len(t.amRecvs)
		n++
	}
}

func (t *mpiThread) Send(dst int, data []byte) bool {
	t.twoSided = true
	t.isend(dst, data, srTagOf(t.idx))
	return true
}

func (t *mpiThread) SendsDone() int64 {
	t.reapSends()
	return t.sendsDone
}

func (t *mpiThread) Recv(src int, buf []byte) bool {
	t.twoSided = true
	req, err := t.m.Irecv(buf, src, srTagOf(t.idx), t.comm16)
	if err != nil {
		panic(fmt.Sprintf("lcw/mpi: Irecv: %v", err))
	}
	t.outRecvs = append(t.outRecvs, req)
	return true
}

func (t *mpiThread) RecvsDone() int64 {
	t.reapRecvs()
	return t.recvsDone
}
