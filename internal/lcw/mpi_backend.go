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

// NewMPIJob builds an LCW job over the MPI-like baseline. kind selects
// standard MPI (one VCI) or MPIX (one VCI per thread in dedicated mode).
// The benchmark assertions of §6.2 (no AnyTag, allow overtaking, no
// global progress) are always applied, as in the paper.
func NewMPIJob(cfg Config, kind Kind, prov nic.Config) (*Job, error) {
	if kind != MPI && kind != MPIX {
		return nil, fmt.Errorf("lcw: NewMPIJob wants MPI or MPIX, got %v", kind)
	}
	numVCIs := 1
	if kind == MPIX && cfg.Dedicated {
		numVCIs = cfg.ThreadsPerRank
	}
	maxAM, packetSize, preRecvs := cfg.sizing()
	fab := fabric.New(fabric.Config{NumRanks: cfg.Ranks})
	j := &Job{cfg: cfg, fab: fab}
	for r := 0; r < cfg.Ranks; r++ {
		m := mpibase.New(nic.NewDomain(fab, r, prov), mpibase.Config{
			NumVCIs:               numVCIs,
			AssertNoAnyTag:        true,
			AssertAllowOvertaking: true,
			PacketSize:            packetSize,
			PreRecvs:              preRecvs,
		})
		c := &mpiComm{m: m, threads: make([]*mpiThread, cfg.ThreadsPerRank)}
		for t := 0; t < cfg.ThreadsPerRank; t++ {
			th := &mpiThread{comm: c, idx: t, comm16: t}
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
			c.threads[t] = th
		}
		j.comms = append(j.comms, c)
	}
	return j, nil
}

type mpiComm struct {
	m       *mpibase.MPI
	threads []*mpiThread
}

func (c *mpiComm) Rank() int              { return c.m.Rank() }
func (c *mpiComm) NumRanks() int          { return c.m.NumRanks() }
func (c *mpiComm) Thread(i int) Thread    { return c.threads[i] }
func (c *mpiComm) SupportsSendRecv() bool { return true }
func (c *mpiComm) Close() error           { return nil }

type amSlot struct {
	req *mpibase.Request
	buf []byte
}

type mpiThread struct {
	comm   *mpiComm
	idx    int
	comm16 int // communicator: thread index (dedicated) or 0 (shared)

	amRecvs []amSlot // ring of pre-posted AM receives (head = oldest)

	outSends  []*mpibase.Request // in-flight Isends (AM + two-sided)
	sendsDone int64

	outRecvs  []*mpibase.Request // in-flight two-sided Irecvs
	recvsDone int64
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

func (t *mpiThread) SendAM(dst int, data []byte) bool {
	t.reapSends()
	m := t.comm.m
	for len(t.outSends) >= maxOutstandingSends {
		// MPI has no retry status (§4.2.5): the wrapper must block.
		m.ProgressVCI(t.comm16, amTagOf(t.idx))
		m.ProgressVCI(t.comm16, srTagOf(t.idx))
		t.reapSends()
	}
	t.outSends = append(t.outSends, m.Isend(data, dst, amTagOf(t.idx), t.comm16))
	return true
}

func (t *mpiThread) PollAM() (Message, bool) {
	m := t.comm.m
	head := t.amRecvs[0]
	if !head.req.Done() {
		m.ProgressVCI(t.comm16, amTagOf(t.idx))
		if !head.req.Done() {
			return Message{}, false
		}
	}
	// Deliver a copy and recycle the slot at the tail.
	out := make([]byte, head.req.Len)
	copy(out, head.buf[:head.req.Len])
	src := head.req.Source
	req, err := m.Irecv(head.buf, mpibase.AnySource, amTagOf(t.idx), t.comm16)
	if err != nil {
		panic(fmt.Sprintf("lcw/mpi: repost Irecv: %v", err))
	}
	copy(t.amRecvs, t.amRecvs[1:])
	t.amRecvs[len(t.amRecvs)-1] = amSlot{req: req, buf: head.buf}
	return Message{Src: src, Data: out}, true
}

func (t *mpiThread) Send(dst int, data []byte) bool {
	t.reapSends()
	m := t.comm.m
	for len(t.outSends) >= maxOutstandingSends {
		m.ProgressVCI(t.comm16, amTagOf(t.idx))
		m.ProgressVCI(t.comm16, srTagOf(t.idx))
		t.reapSends()
	}
	t.outSends = append(t.outSends, m.Isend(data, dst, srTagOf(t.idx), t.comm16))
	return true
}

func (t *mpiThread) SendsDone() int64 {
	t.reapSends()
	return t.sendsDone
}

func (t *mpiThread) Recv(src int, buf []byte) bool {
	req, err := t.comm.m.Irecv(buf, src, srTagOf(t.idx), t.comm16)
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

func (t *mpiThread) Progress() {
	// Progress both VCIs this thread's traffic maps to (AM and two-sided
	// tags may hash differently), then reap.
	t.comm.m.ProgressVCI(t.comm16, amTagOf(t.idx))
	t.comm.m.ProgressVCI(t.comm16, srTagOf(t.idx))
	t.reapSends()
	t.reapRecvs()
}
