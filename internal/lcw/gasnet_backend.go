package lcw

import (
	"fmt"

	"lci/internal/gasnetsim"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
)

// newGASNetJob builds an LCW job over the GASNet-EX-like baseline. GASNet
// supports only the shared-resource mode and only active messages (§6.2);
// Send/Recv report unsupported. Each rank registers one handler that
// calls the sink inline from Poll, on whichever thread polls.
func newGASNetJob(cfg Config, prov nic.Config) (*Job, error) {
	if cfg.Dedicated {
		return nil, fmt.Errorf("lcw: GASNet does not support the dedicated-resource mode (§2.2)")
	}
	maxAM, packetSize, preRecvs := cfg.sizing()
	fab := fabric.New(fabric.Config{NumRanks: cfg.Ranks})
	j := &Job{cfg: cfg}
	for r := 0; r < cfg.Ranks; r++ {
		g := gasnetsim.New(nic.NewDomain(fab, r, prov), gasnetsim.Config{PacketSize: packetSize, PreRecvs: preRecvs})
		c := &Comm{rank: r, nranks: cfg.Ranks, maxAM: maxAM}
		th := &gasnetThread{g: g}
		th.handler = g.RegisterHandler(func(src int, _ uint32, payload []byte) { c.sink(src, payload) })
		for t := 0; t < cfg.ThreadsPerRank; t++ {
			c.threads = append(c.threads, th) // one shared endpoint: every handle is the same
		}
		j.comms = append(j.comms, c)
	}
	return j, nil
}

type gasnetThread struct {
	g       *gasnetsim.GASNet
	handler int
}

// SendAM is gex_AM_RequestMedium: it blocks (polling, hence possibly
// delivering arrivals) until injected, so it never asks for a retry.
func (t *gasnetThread) SendAM(dst int, data []byte) bool {
	t.g.RequestMedium(dst, t.handler, 0, data)
	return true
}

func (t *gasnetThread) Progress() int         { return t.g.Poll() }
func (t *gasnetThread) Send(int, []byte) bool { return false }
func (t *gasnetThread) SendsDone() int64      { return 0 }
func (t *gasnetThread) Recv(int, []byte) bool { return false }
func (t *gasnetThread) RecvsDone() int64      { return 0 }
