// Package gasnetsim reimplements the GASNet-EX baseline of the paper's
// evaluation: an active-message library with gex_AM_RequestMedium-style
// semantics. Handlers are registered at startup by index and executed
// inside the polling call (AM progress semantics), which is why GASNet-EX
// cannot replicate its AM resources per thread (§2.2) — this library
// therefore supports only the shared-resource mode, matching the paper's
// Figure 4, where the GASNet-EX dedicated-resource series is absent.
//
// Injection takes a short per-endpooint lock; polling takes a try-lock so
// concurrent pollers do not pile up, and handlers run outside the queue
// lock. This reproduces GASNet-EX's respectable shared-mode message rate.
package gasnetsim

import (
	"encoding/binary"
	"fmt"

	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/spin"
)

// Handler is an AM handler: src rank, a 32-bit argument, and the payload
// (valid only during the call, like GASNet's medium AM buffer).
type Handler func(src int, arg uint32, payload []byte)

// Config sizes a GASNet instance.
type Config struct {
	// PreRecvs is the number of pre-posted receive buffers (default 256:
	// a shared endpoint serves every thread).
	PreRecvs int
	// PacketSize bounds a medium AM payload (default 8192 - 8).
	PacketSize int
}

func (c Config) withDefaults() Config {
	if c.PreRecvs <= 0 {
		c.PreRecvs = 256
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 8192
	}
	return c
}

const amHdrSize = 8 // handler(2) pad(2) arg(4)

// GASNet is one rank's library instance: a single shared endpoint.
type GASNet struct {
	cfg      Config
	rank, n  int
	dev      *nic.Device
	handlers []Handler

	txMu spin.Mutex // injection lock (short)

	pollMu    spin.Mutex // poll try-lock; handlers run under it like gasnet AMPoll
	recvBufs  [][]byte
	deficit   int
	compBatch []fabric.Completion // poll scratch; protected by pollMu
}

// New builds the library for the rank of provider domain dom.
func New(dom *nic.Domain, cfg Config) *GASNet {
	cfg = cfg.withDefaults()
	g := &GASNet{cfg: cfg, rank: dom.Rank(), n: dom.NumRanks(), dev: dom.NewDevice(), deficit: cfg.PreRecvs}
	for i := 0; i < cfg.PreRecvs; i++ {
		g.recvBufs = append(g.recvBufs, make([]byte, cfg.PacketSize))
	}
	g.replenish()
	return g
}

// Rank returns the local rank.
func (g *GASNet) Rank() int { return g.rank }

// NumRanks returns the job size.
func (g *GASNet) NumRanks() int { return g.n }

// MaxMedium returns the largest RequestMedium payload.
func (g *GASNet) MaxMedium() int { return g.cfg.PacketSize - amHdrSize }

// RegisterHandler registers a handler and returns its index. All ranks
// must register handlers in the same order before communicating.
func (g *GASNet) RegisterHandler(h Handler) int {
	g.handlers = append(g.handlers, h)
	return len(g.handlers) - 1
}

func (g *GASNet) replenish() {
	g.txMu.Lock()
	for g.deficit > 0 && len(g.recvBufs) > 0 {
		buf := g.recvBufs[len(g.recvBufs)-1]
		g.recvBufs = g.recvBufs[:len(g.recvBufs)-1]
		g.dev.PostRecv(buf, buf)
		g.deficit--
	}
	g.txMu.Unlock()
}

// RequestMedium sends payload plus a 32-bit argument to handler idx at
// dst. Like gex_AM_RequestMedium it blocks (polling internally) until the
// injection succeeds.
func (g *GASNet) RequestMedium(dst, handler int, arg uint32, payload []byte) {
	if len(payload) > g.MaxMedium() {
		panic(fmt.Sprintf("gasnetsim: medium AM payload %d exceeds max %d", len(payload), g.MaxMedium()))
	}
	pkt := make([]byte, amHdrSize+len(payload))
	binary.LittleEndian.PutUint16(pkt[0:], uint16(handler))
	binary.LittleEndian.PutUint32(pkt[4:], arg)
	copy(pkt[amHdrSize:], payload)
	for {
		g.txMu.Lock()
		err := g.dev.PostSend(dst, 0, uint32(handler), pkt, nil)
		g.txMu.Unlock()
		if err == nil {
			return
		}
		if err != nic.ErrTxFull {
			panic(fmt.Sprintf("gasnetsim: AM failed: %v", err))
		}
		g.Poll()
	}
}

// Poll makes AM progress: it drains completions and runs handlers. A
// failed try-lock returns immediately (another thread is polling), which
// is what lets many threads call Poll cheaply.
func (g *GASNet) Poll() int {
	if !g.pollMu.TryLock() {
		return 0
	}
	if g.compBatch == nil {
		g.compBatch = make([]fabric.Completion, 32)
	}
	comps := g.compBatch
	n := g.dev.PollCQ(comps)
	handled := 0
	for i := 0; i < n; i++ {
		c := &comps[i]
		if c.Kind != fabric.RxSend {
			continue
		}
		buf := c.Ctx.([]byte)
		idx := int(binary.LittleEndian.Uint16(buf[0:]))
		arg := binary.LittleEndian.Uint32(buf[4:])
		if idx < len(g.handlers) {
			g.handlers[idx](c.Src, arg, buf[amHdrSize:c.Len])
		}
		handled++
		// Return the buffer and re-post.
		g.txMu.Lock()
		g.recvBufs = append(g.recvBufs, buf)
		g.deficit++
		g.txMu.Unlock()
	}
	g.pollMu.Unlock()
	if handled > 0 {
		g.replenish()
	}
	return handled
}
