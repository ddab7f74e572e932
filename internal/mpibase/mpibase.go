// Package mpibase reimplements the MPI baseline of the paper's evaluation:
// a message-passing library with MPI semantics — in-order delivery,
// wildcard matching against central posted/unexpected queues, request
// objects, and progress as a side effect of Test/Wait — protected by a
// per-VCI global critical section, the MPICH CH4 locking model.
//
// With Config.NumVCIs == 1 it behaves like standard MPI_THREAD_MULTIPLE
// MPICH: every operation of every thread serializes on one lock, and the
// matching queues are shared. With NumVCIs > 1 it models the MPICH VCI
// extension used in the paper (one VCI per thread in the dedicated-
// resource mode): operations hash to a VCI by (communicator, tag), and
// only threads landing on the same VCI contend.
//
// The implementation sits directly on the simulated provider devices with
// their blocking locks, exactly as MPICH sits on libibverbs/libfabric
// (§6.2: MPICH's netmod). The eager/rendezvous split mirrors MPICH's.
package mpibase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"lci/internal/netsim/fabric"
	"lci/internal/netsim/nic"
	"lci/internal/spin"
)

// AnySource and AnyTag are the MPI wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config configures an MPI instance.
type Config struct {
	// NumVCIs is the number of virtual communication interfaces
	// (default 1 = standard MPI). The paper's mpix runs use up to 64.
	NumVCIs int
	// AssertNoAnyTag mirrors mpi_assert_no_any_tag: promises no AnyTag
	// receives, enabling per-VCI tag hashing.
	AssertNoAnyTag bool
	// EagerLimit is the largest eager payload (default: packet size - 24).
	EagerLimit int
	// ProgressOverheadNs models the CH4 progress-engine round: the work a
	// real MPICH progress call does beyond the provider CQ poll — netmod
	// function-table hops, workq and RMA bookkeeping, progress counters —
	// all inside the VCI critical section, whether or not anything
	// completed (default 100, conservative against measured MPICH rounds). LCI has no analogue: its progress engine is
	// the device poll itself (§4.2.7).
	ProgressOverheadNs int
	// PreRecvs is the number of pre-posted receive buffers per VCI
	// (default 128). PacketSize defaults to 8192.
	PreRecvs   int
	PacketSize int
}

func (c Config) withDefaults() Config {
	if c.NumVCIs <= 0 {
		c.NumVCIs = 1
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 8192
	}
	if c.EagerLimit <= 0 {
		c.EagerLimit = c.PacketSize - wireHdrSize
	}
	if c.PreRecvs <= 0 {
		c.PreRecvs = 128
	}
	if c.ProgressOverheadNs <= 0 {
		c.ProgressOverheadNs = 100
	}
	return c
}

// Request is a nonblocking-operation handle (MPI_Request).
type Request struct {
	done   atomic.Bool
	Source int
	Tag    int
	Len    int
	Buf    []byte
}

// Done reports completion without progressing (unlike Test).
func (r *Request) Done() bool { return r.done.Load() }

// wire header: kind(1) pad(1) comm(2) tag(4) seq(4) size(4) token(8)
const wireHdrSize = 24

const (
	kEager uint8 = iota + 1
	kRTS
	kRTR
)

type wireHdr struct {
	kind  uint8
	comm  uint16
	tag   int32
	seq   uint32 // RTR only: the receiver's token, echoed as the write immediate
	size  uint32
	token uint64
}

func (h wireHdr) encode(b []byte) {
	b[0] = h.kind
	b[1] = 0
	binary.LittleEndian.PutUint16(b[2:], h.comm)
	binary.LittleEndian.PutUint32(b[4:], uint32(h.tag))
	binary.LittleEndian.PutUint32(b[8:], h.seq)
	binary.LittleEndian.PutUint32(b[12:], h.size)
	binary.LittleEndian.PutUint64(b[16:], h.token)
}

func decodeWireHdr(b []byte) wireHdr {
	return wireHdr{
		kind:  b[0],
		comm:  binary.LittleEndian.Uint16(b[2:]),
		tag:   int32(binary.LittleEndian.Uint32(b[4:])),
		seq:   binary.LittleEndian.Uint32(b[8:]),
		size:  binary.LittleEndian.Uint32(b[12:]),
		token: binary.LittleEndian.Uint64(b[16:]),
	}
}

// postedRecv is an entry in the central posted-receive queue.
type postedRecv struct {
	req  *Request
	buf  []byte
	src  int // AnySource allowed
	tag  int // AnyTag allowed
	comm uint16
}

// unexpMsg is an arrived-but-unmatched message (its payload has been
// copied out of the receive packet, as MPICH does).
type unexpMsg struct {
	src  int
	tag  int
	comm uint16
	data []byte // eager payload, owned
	rts  bool
	tok  uint64 // rendezvous sender token
	size int
}

// sendCtx rides through the provider as the TxDone context.
type sendCtx struct {
	req *Request
}

// rdvSend is an in-flight rendezvous send awaiting RTR.
type rdvSend struct {
	req *Request
	buf []byte
}

// rdvRecv is an in-flight rendezvous receive awaiting the data write.
type rdvRecv struct {
	req  *Request
	rkey uint64
	src  int
	tag  int
}

// vci is one virtual communication interface: a device plus central
// matching state, all under one lock.
type vci struct {
	mu         spin.Mutex // the global critical section
	dev        *nic.Device
	posted     []*postedRecv
	unexpected []*unexpMsg
	tokens     map[uint64]any
	nextTok    uint64
	recvBufs   [][]byte // recycled packet buffers
	deficit    int
	compBatch  []fabric.Completion // poll scratch; protected by mu
	_          spin.Pad
}

// MPI is one rank's library instance.
type MPI struct {
	cfg  Config
	rank int
	n    int
	vcis []*vci
}

// New builds the library for the rank of provider domain dom.
func New(dom *nic.Domain, cfg Config) *MPI {
	cfg = cfg.withDefaults()
	n := dom.NumRanks()
	m := &MPI{cfg: cfg, rank: dom.Rank(), n: n}
	m.vcis = make([]*vci, cfg.NumVCIs)
	for i := range m.vcis {
		v := &vci{
			dev:     dom.NewDevice(),
			tokens:  make(map[uint64]any),
			deficit: cfg.PreRecvs,
		}
		for j := 0; j < cfg.PreRecvs; j++ {
			v.recvBufs = append(v.recvBufs, make([]byte, cfg.PacketSize))
		}
		v.replenishLocked()
		m.vcis[i] = v
	}
	return m
}

// Rank returns the local rank.
func (m *MPI) Rank() int { return m.rank }

// NumRanks returns the communicator size.
func (m *MPI) NumRanks() int { return m.n }

// NumVCIs returns the configured VCI count.
func (m *MPI) NumVCIs() int { return len(m.vcis) }

// vciOf maps (comm, tag) to a VCI, the MPICH hashing model. Wildcard-tag
// receives are only legal on a single-VCI instance unless comm alone
// disambiguates.
func (m *MPI) vciOf(comm int, tag int) *vci {
	if len(m.vcis) == 1 {
		return m.vcis[0]
	}
	h := uint32(comm)
	if !m.cfg.AssertNoAnyTag {
		// Without the no-any-tag promise only the communicator may be
		// hashed, or wildcard receives would miss.
		return m.vcis[h%uint32(len(m.vcis))]
	}
	h = h*31 + uint32(tag)
	return m.vcis[h%uint32(len(m.vcis))]
}

func (v *vci) replenishLocked() {
	for v.deficit > 0 && len(v.recvBufs) > 0 {
		buf := v.recvBufs[len(v.recvBufs)-1]
		v.recvBufs = v.recvBufs[:len(v.recvBufs)-1]
		v.dev.PostRecv(buf, buf)
		v.deficit--
	}
}

// ErrVCIWildcard is returned for AnyTag receives that cannot be routed
// under a multi-VCI configuration (the VCI hash includes the tag).
var ErrVCIWildcard = errors.New("mpibase: AnyTag receive cannot be routed with multiple VCIs")

// Isend starts a nonblocking standard-mode send.
func (m *MPI) Isend(buf []byte, dst, tag, comm int) *Request {
	req := &Request{Source: m.rank, Tag: tag, Len: len(buf)}
	v := m.vciOf(comm, tag)
	v.mu.Lock()
	if len(buf) <= m.cfg.EagerLimit {
		m.eagerSendLocked(v, req, buf, dst, tag, comm)
	} else {
		m.rtsSendLocked(v, req, buf, dst, tag, comm)
	}
	v.mu.Unlock()
	return req
}

// inlineEager is the packet-size ceiling under which the netmod posts the
// eager message inline/injected (no local CQE) and completes the request
// immediately — MPICH does exactly this for small eager sends, where the
// provider's inject path makes the buffer reusable on return.
const inlineEager = 128

// eagerSendLocked transmits an eager message, spinning on provider
// backpressure inside the critical section — the blocking retry loop the
// paper contrasts with LCI's in-band retry (§4.2.5).
func (m *MPI) eagerSendLocked(v *vci, req *Request, buf []byte, dst, tag, comm int) {
	pkt := make([]byte, wireHdrSize+len(buf))
	wireHdr{kind: kEager, comm: uint16(comm), tag: int32(tag), size: uint32(len(buf))}.encode(pkt)
	copy(pkt[wireHdrSize:], buf)
	var ctx any
	if len(pkt) > inlineEager {
		ctx = &sendCtx{req: req}
	}
	for {
		err := v.dev.PostSend(dst, v.dev.Index(), uint32(kEager), pkt, ctx)
		if err == nil {
			if ctx == nil {
				// Inject path: the provider copied the bytes; the request
				// is complete at post time, no CQE will arrive.
				req.done.Store(true)
			}
			return
		}
		if err != nic.ErrTxFull {
			panic(fmt.Sprintf("mpibase: send failed: %v", err))
		}
		// Blocking retry: progress this VCI while holding the lock.
		m.progressLocked(v)
	}
}

func (m *MPI) rtsSendLocked(v *vci, req *Request, buf []byte, dst, tag, comm int) {
	tok := v.nextTok
	v.nextTok++
	v.tokens[tok] = &rdvSend{req: req, buf: buf}
	pkt := make([]byte, wireHdrSize)
	wireHdr{kind: kRTS, comm: uint16(comm), tag: int32(tag), size: uint32(len(buf)), token: tok}.encode(pkt)
	for {
		err := v.dev.PostSend(dst, v.dev.Index(), uint32(kRTS), pkt, nil)
		if err == nil {
			return
		}
		if err != nic.ErrTxFull {
			panic(fmt.Sprintf("mpibase: RTS failed: %v", err))
		}
		m.progressLocked(v)
	}
}

// Irecv starts a nonblocking receive. src may be AnySource and tag AnyTag
// (single-VCI configurations only, per the benchmark assertions).
func (m *MPI) Irecv(buf []byte, src, tag, comm int) (*Request, error) {
	if len(m.vcis) > 1 && tag == AnyTag {
		// The VCI hash includes the tag, so an AnyTag receive cannot be
		// routed; AnySource is fine (the hash is source-agnostic).
		return nil, ErrVCIWildcard
	}
	req := &Request{}
	v := m.vciOf(comm, tag)
	pr := &postedRecv{req: req, buf: buf, src: src, tag: tag, comm: uint16(comm)}

	v.mu.Lock()
	// First scan the unexpected queue in arrival order (MPI matching
	// rule).
	for i, u := range v.unexpected {
		if matches(pr, u.src, u.tag, u.comm) {
			v.unexpected = append(v.unexpected[:i], v.unexpected[i+1:]...)
			m.deliverLocked(v, pr, u)
			v.mu.Unlock()
			return req, nil
		}
	}
	v.posted = append(v.posted, pr)
	v.mu.Unlock()
	return req, nil
}

func matches(pr *postedRecv, src, tag int, comm uint16) bool {
	if pr.comm != comm {
		return false
	}
	if pr.src != AnySource && pr.src != src {
		return false
	}
	if pr.tag != AnyTag && pr.tag != tag {
		return false
	}
	return true
}

// deliverLocked completes a matched receive from an unexpected message.
func (m *MPI) deliverLocked(v *vci, pr *postedRecv, u *unexpMsg) {
	if u.rts {
		m.sendRTRLocked(v, pr, u)
		return
	}
	n := copy(pr.buf, u.data)
	pr.req.Source, pr.req.Tag, pr.req.Len = u.src, u.tag, n
	pr.req.done.Store(true)
}

// sendRTRLocked answers a matched rendezvous announcement.
func (m *MPI) sendRTRLocked(v *vci, pr *postedRecv, u *unexpMsg) {
	size := u.size
	if size > len(pr.buf) {
		size = len(pr.buf)
	}
	region := pr.buf[:size]
	rkey := v.dev.RegisterMem(region)
	tok := v.nextTok
	v.nextTok++
	v.tokens[tok] = &rdvRecv{req: pr.req, rkey: rkey, src: u.src, tag: u.tag}
	pkt := make([]byte, wireHdrSize)
	// RTR layout: seq = our token, size = granted length, token = the sender's token, then the rkey.
	wireHdr{kind: kRTR, comm: u.comm, seq: uint32(tok), size: uint32(size), token: u.tok}.encode(pkt)
	pkt = append(pkt, make([]byte, 8)...)
	binary.LittleEndian.PutUint64(pkt[wireHdrSize:], rkey)
	for {
		err := v.dev.PostSend(u.src, v.dev.Index(), uint32(kRTR), pkt, nil)
		if err == nil {
			return
		}
		if err != nic.ErrTxFull {
			panic(fmt.Sprintf("mpibase: RTR failed: %v", err))
		}
		m.progressLocked(v)
	}
}

// Test progresses the library and reports whether the request completed —
// MPI's progress-as-side-effect model (§4.2.7).
func (m *MPI) Test(r *Request) bool {
	if r.done.Load() {
		return true
	}
	m.Progress()
	return r.done.Load()
}

// Wait blocks (spinning on progress) until the request completes.
func (m *MPI) Wait(r *Request) {
	for !m.Test(r) {
	}
}

// Progress polls each VCI in turn, one lock acquisition each — what
// MPI_Test does (the benchmarks progress their own VCI with ProgressVCI).
func (m *MPI) Progress() {
	for _, v := range m.vcis {
		v.mu.Lock()
		m.progressLocked(v)
		v.mu.Unlock()
	}
}

// ProgressVCI progresses only the VCI that (comm, tag) maps to — what the
// paper's benchmark achieves by constraining communicators to VCIs.
func (m *MPI) ProgressVCI(comm, tag int) {
	v := m.vciOf(comm, tag)
	v.mu.Lock()
	m.progressLocked(v)
	v.mu.Unlock()
}

// progressLocked runs one progress round on v. Caller holds v.mu.
func (m *MPI) progressLocked(v *vci) {
	spin.Delay(m.cfg.ProgressOverheadNs)
	v.replenishLocked()
	if v.compBatch == nil {
		v.compBatch = make([]fabric.Completion, 32)
	}
	comps := v.compBatch
	n := v.dev.PollCQ(comps)
	for i := 0; i < n; i++ {
		c := &comps[i]
		switch c.Kind {
		case fabric.TxDone:
			if c.Ctx != nil {
				if sc, ok := c.Ctx.(*sendCtx); ok && sc.req != nil {
					sc.req.done.Store(true)
				}
			}
		case fabric.RxSend:
			buf := c.Ctx.([]byte)
			m.handleArrivalLocked(v, c.Src, buf[:c.Len])
			v.recvBufs = append(v.recvBufs, buf)
			v.deficit++
		case fabric.RxWriteImm:
			tok := c.Imm
			st, ok := v.tokens[tok].(*rdvRecv)
			if !ok {
				panic("mpibase: write-imm for unknown token")
			}
			delete(v.tokens, tok)
			v.dev.DeregisterMem(st.rkey)
			st.req.Source, st.req.Tag, st.req.Len = st.src, st.tag, c.Len
			st.req.done.Store(true)
		}
		comps[i] = fabric.Completion{} // drop references for the GC
	}
}

// handleArrivalLocked matches one arrived message against the posted
// queue or parks it as unexpected.
func (m *MPI) handleArrivalLocked(v *vci, src int, pkt []byte) {
	h := decodeWireHdr(pkt)
	switch h.kind {
	case kEager, kRTS:
		u := &unexpMsg{
			src: src, tag: int(h.tag), comm: h.comm,
			rts: h.kind == kRTS, tok: h.token, size: int(h.size),
		}
		if h.kind == kEager {
			u.data = make([]byte, h.size)
			copy(u.data, pkt[wireHdrSize:wireHdrSize+int(h.size)])
		}
		// Match in posted order (first matching posted receive wins).
		for i, pr := range v.posted {
			if matches(pr, u.src, u.tag, u.comm) {
				v.posted = append(v.posted[:i], v.posted[i+1:]...)
				m.deliverLocked(v, pr, u)
				return
			}
		}
		v.unexpected = append(v.unexpected, u)
	case kRTR:
		senderTok := h.token
		st, ok := v.tokens[senderTok].(*rdvSend)
		if !ok {
			panic("mpibase: RTR for unknown token")
		}
		delete(v.tokens, senderTok)
		rkey := binary.LittleEndian.Uint64(pkt[wireHdrSize:])
		size := int(h.size)
		data := st.buf
		if size < len(data) {
			data = data[:size]
		}
		for {
			err := v.dev.PostWrite(src, v.dev.Index(), rkey, 0, data, uint64(h.seq), true, &sendCtx{req: st.req})
			if err == nil {
				break
			}
			if err != nic.ErrTxFull {
				panic(fmt.Sprintf("mpibase: rendezvous write failed: %v", err))
			}
			m.progressLocked(v)
		}
	default:
		panic(fmt.Sprintf("mpibase: unknown wire kind %d", h.kind))
	}
}

// Barrier is a dissemination barrier over point-to-point messages on the
// given communicator (reserved tag space).
func (m *MPI) Barrier(comm int) {
	const barrierTagBase = 1 << 21
	n := m.n
	if n == 1 {
		return
	}
	var payload [1]byte
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		sendTo := (m.rank + dist) % n
		recvFrom := (m.rank - dist + n) % n
		tag := barrierTagBase + k
		var rbuf [1]byte
		rreq, err := m.Irecv(rbuf[:], recvFrom, tag, comm)
		if err != nil {
			panic(err)
		}
		sreq := m.Isend(payload[:], sendTo, tag, comm)
		m.Wait(rreq)
		m.Wait(sreq)
	}
}
