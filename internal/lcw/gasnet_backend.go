package lcw

import (
	"fmt"

	"lci/internal/gasnetsim"
	"lci/internal/mpmc"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// NewGASNetJob builds an LCW job over the GASNet-EX-like baseline. GASNet
// supports only the shared-resource mode and only active messages (§6.2);
// Send/Recv report unsupported. One LCW handler is registered; its 32-bit
// argument routes the payload to the target thread's inbox.
func NewGASNetJob(cfg Config, prov nic.Config) (*Job, error) {
	if cfg.Dedicated {
		return nil, fmt.Errorf("lcw: GASNet does not support the dedicated-resource mode (§2.2)")
	}
	fab := fabric.New(fabric.Config{NumRanks: cfg.Ranks})
	j := &Job{cfg: cfg, fab: fab}
	for r := 0; r < cfg.Ranks; r++ {
		_, packetSize, preRecvs := cfg.sizing()
		g := gasnetsim.New(nic.NewDomain(fab, r, prov), gasnetsim.Config{PacketSize: packetSize, PreRecvs: preRecvs})
		c := &gasnetComm{g: g, threads: make([]*gasnetThread, cfg.ThreadsPerRank)}
		for t := 0; t < cfg.ThreadsPerRank; t++ {
			c.threads[t] = &gasnetThread{comm: c, idx: t, inbox: mpmc.NewQueue[Message](256)}
		}
		c.handler = g.RegisterHandler(func(src int, arg uint32, payload []byte) {
			// The medium-AM buffer is only valid during the handler; copy.
			data := make([]byte, len(payload))
			copy(data, payload)
			c.threads[int(arg)%len(c.threads)].inbox.Enqueue(Message{Src: src, Data: data})
		})
		j.comms = append(j.comms, c)
	}
	return j, nil
}

type gasnetComm struct {
	g       *gasnetsim.GASNet
	handler int
	threads []*gasnetThread
}

func (c *gasnetComm) Rank() int              { return c.g.Rank() }
func (c *gasnetComm) NumRanks() int          { return c.g.NumRanks() }
func (c *gasnetComm) Thread(i int) Thread    { return c.threads[i] }
func (c *gasnetComm) SupportsSendRecv() bool { return false }
func (c *gasnetComm) Close() error           { return nil }

type gasnetThread struct {
	comm  *gasnetComm
	idx   int
	inbox *mpmc.Queue[Message]
}

func (t *gasnetThread) SendAM(dst int, data []byte) bool {
	// gex_AM_RequestMedium blocks until injected; LCW reports success.
	t.comm.g.RequestMedium(dst, t.comm.handler, uint32(t.idx), data)
	return true
}

func (t *gasnetThread) PollAM() (Message, bool) {
	if m, ok := t.inbox.Dequeue(); ok {
		return m, true
	}
	t.comm.g.Poll()
	return t.inbox.Dequeue()
}

func (t *gasnetThread) Send(int, []byte) bool { return false }
func (t *gasnetThread) SendsDone() int64      { return 0 }
func (t *gasnetThread) Recv(int, []byte) bool { return false }
func (t *gasnetThread) RecvsDone() int64      { return 0 }
func (t *gasnetThread) Progress()             { t.comm.g.Poll() }
