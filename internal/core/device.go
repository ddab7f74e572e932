package core

import (
	"sync/atomic"

	"lci/internal/base"
	"lci/internal/fault"
	"lci/internal/matching"
	"lci/internal/mpmc"
	"lci/internal/netsim/fabric"
	"lci/internal/network"
	"lci/internal/packet"
	"lci/internal/spin"
	"lci/internal/telemetry"
	"lci/internal/topo"
)

// Device encapsulates a complete set of low-level network resources
// (§4.2.3). Threads operating on different devices never interfere with
// each other. A device carries its own backlog queue and a packet-pool
// worker, and keeps the network supplied with pre-posted receives.
type Device struct {
	rt     *Runtime
	net    *network.Device
	worker *packet.Worker
	tokens tokenTable
	// domain is the NUMA domain the device's resources are bound to by
	// the placement policy (topo.UnknownDomain when the runtime has no
	// multi-domain topology; the locality machinery is then inert).
	domain int

	// recvDeficit counts pre-posted receive slots that have been consumed
	// (or never posted) and must be replenished by progress.
	recvDeficit atomic.Int64

	// The backlog queue (§5.1.5; submit parks, drainBacklog retries).
	// bqNonEmpty lets the empty progress round skip it without the lock.
	bqNonEmpty atomic.Bool
	bqMu       spin.Mutex
	bq         mpmc.Deque[deferrable]

	// pollMu admits one poller at a time to the completion-handling slow
	// path (the paper's try-lock rule: one poller proceeds, the rest return
	// immediately, §5.2.2). It also makes compBatch single-owner, so the
	// poll batch lives in the device instead of a shared pool.
	pollMu    spin.Lock
	compBatch []network.Completion

	// tel caches the runtime's telemetry root (flag loads on the hot
	// path), tc is this device's padded counter block, and ring is the
	// device's lifecycle trace ring (used by the poller and by posts that
	// carry no thread affinity).
	tel  *telemetry.Telemetry
	tc   *telemetry.DeviceCounters
	ring *telemetry.Ring

	// Failure-domain machinery (hardening.go). inj caches the fabric's
	// injector at device creation (install it before NewRuntime), sparing
	// the tick the fabric's atomic pointer load.
	inj *fault.Injector
	// attention gates the failure-domain tick: it is raised by the
	// injector's kill notification (Subscribe) and by arming a rendezvous
	// timeout, and dropped by the tick itself once neither a death nor a
	// live handshake needs it. The empty progress round therefore costs
	// one device-local load instead of the full death-generation /
	// live-token poll.
	attention        atomic.Bool
	rdvTimeoutEpochs int
	rdvMaxAttempts   int
	rdvEpoch         atomic.Uint64 // progress epochs counted while rendezvous are live
	deadGen          atomic.Uint64 // last injector death generation reacted to
	rdvMu            spin.Lock     // admits one timeout scanner at a time
	rdvScratch       []tokenRef

	// seen deduplicates retransmitted RTS arrivals per (src, sender
	// device, RTS sequence): a parked duplicate is dropped, an
	// already-invited one gets the identical RTR re-sent (idempotent —
	// same receiver token, same rkey), and a completed one is absorbed by
	// a tombstone retained in the bounded doneLog FIFO.
	seenMu   spin.Mutex
	seen     map[rdvSeenKey]rdvSeenEntry
	doneLog  []rdvSeenKey
	doneHead int
	// rtsSeq numbers the rendezvous this device announces. The number
	// rides in the RTS and names the handshake in the receiver's
	// seen-set; unlike a token it never recurs, so a tombstone cannot
	// absorb a later RTS.
	rtsSeq atomic.Uint64
}

// rdvSeenKey names one sender-side rendezvous as the receiver sees it.
// It is keyed on the sender device's RTS sequence, not on the sender
// token: a token slot's 16-bit generation wraps after 65536 reuses, well
// within the lifetime of a tombstone.
type rdvSeenKey struct {
	src, sdev int32
	seq       uint64
}

// seenKey reads the seen-set key off an RTS header: the posting device's
// index rides in the token's upper half, its RTS sequence in rkey.
func seenKey(src int, h header) rdvSeenKey {
	return rdvSeenKey{src: int32(src), sdev: int32(h.token >> 32), seq: h.rkey}
}

const (
	seenParked  uint8 = iota + 1 // RTS parked in the matching engine, no RTR yet
	seenInvited                  // RTR sent; duplicates re-send the stored header
	seenDone                     // payload landed (or the rendezvous was failed)
)

// seenTombstones bounds the completed-entry FIFO absorbing late
// duplicates.
const seenTombstones = 1024

type rdvSeenEntry struct {
	state uint8
	hdr   header
}

// NewDevice allocates a new device (alloc_device in the paper) and adds
// it to the runtime's device pool: it joins the round-robin stripe for
// unpinned posts and is progressed by ProgressAll. With a multi-domain
// topology the placement policy binds the device's resources — network
// endpoint and packet-worker slab — to a NUMA domain before any traffic
// flows.
func (rt *Runtime) NewDevice() (*Device, error) {
	if rt.closed {
		return nil, ErrClosed
	}
	nd := network.NewDevice(rt.netdom)
	dom := topo.UnknownDomain
	if t := rt.cfg.Topology; !t.Single() {
		dom = rt.cfg.Placement.DeviceDomain(t, nd.Index(), rt.cfg.NumDevices)
		if dom < 0 || dom >= t.Domains() {
			dom = nd.Index() % t.Domains() // defensive: policy bug, stay in the topology
		}
		nd.BindDomain(dom)
	}
	// The injector is read once, here: one installed after runtimes exist
	// is not seen by their devices (fabric.SetInjector before NewRuntime
	// is the documented order).
	inj := rt.injector()
	d := &Device{
		inj:              inj,
		rt:               rt,
		net:              nd,
		domain:           dom,
		worker:           rt.pool.RegisterWorkerIn(dom),
		compBatch:        make([]network.Completion, 32),
		tel:              rt.tel,
		tc:               &telemetry.DeviceCounters{},
		ring:             rt.tel.Trace().NewRing(),
		rdvTimeoutEpochs: rt.cfg.RendezvousTimeoutEpochs,
		rdvMaxAttempts:   rt.cfg.RendezvousMaxAttempts,
		seen:             make(map[rdvSeenKey]rdvSeenEntry),
	}
	d.bq.Init(16)
	// Start raised: the first tick absorbs any deaths that predate the
	// device, then settles the flag.
	d.attention.Store(true)
	if inj != nil {
		inj.Subscribe(func() { d.attention.Store(true) })
	}
	rt.tel.RegisterDevice(nd.Index(), d.tc, func() telemetry.DeviceGauges {
		ns := d.net.Stats()
		return telemetry.DeviceGauges{
			Net: telemetry.NetSnap{
				Msgs: ns.Msgs, Bytes: ns.Bytes, RNR: ns.RNR,
				Rejects: ns.Rejects, CrossOps: ns.CrossOps,
			},
			ConnectedPeers: d.net.ConnectedPeers(),
			BacklogLen:     d.BacklogLen(),
		}
	})
	d.recvDeficit.Store(int64(rt.cfg.PreRecvs))
	d.replenish(d.worker)
	idx := rt.devs.Append(d)
	if dom >= 0 && dom < len(rt.domDevs) {
		rt.domDevs[dom].Append(idx)
	}
	return d, nil
}

// Index returns the device's endpoint index within its rank; symmetric
// applications reach the peer's i-th device by posting on their own i-th
// device.
func (d *Device) Index() int { return d.net.Index() }

// Runtime returns the owning runtime.
func (d *Device) Runtime() *Runtime { return d.rt }

// Domain returns the NUMA domain the device's resources are bound to
// (topo.UnknownDomain when the runtime has no multi-domain topology).
func (d *Device) Domain() int { return d.domain }

// crossDelay charges the provider's modeled cross-domain access cost when
// the worker driving the device lives in a different NUMA domain than the
// device's resources (§4.2.2's locality assumption, made measurable). The
// guard keeps the topology-oblivious paths at two loads.
func (d *Device) crossDelay(w *packet.Worker) {
	if d.domain < 0 {
		return
	}
	if from := w.Domain(); from >= 0 && from != d.domain {
		d.net.CrossDelay(from)
		if d.tel.Counting() {
			d.tc.CrossOps.Add(1)
		}
	}
}

// replenish posts packets as receive buffers until the deficit is zero, a
// packet cannot be obtained, or the network refuses. Each posting claims
// its deficit slot by CAS first: concurrent replenishers (shared-device
// mode) must not both post against the same slot, which would drive the
// deficit negative and grow the posted window beyond PreRecvs.
func (d *Device) replenish(w *packet.Worker) {
	for {
		n := d.recvDeficit.Load()
		if n <= 0 {
			return
		}
		if !d.recvDeficit.CompareAndSwap(n, n-1) {
			continue
		}
		pkt := w.Get()
		if pkt == nil {
			d.recvDeficit.Add(1)
			return
		}
		if err := d.net.PostRecv(pkt.Data, pkt); err != nil {
			w.Put(pkt)
			d.recvDeficit.Add(1)
			return
		}
	}
}

// Progress makes progress on the device (§4.2.7): it drains the backlog
// queue, replenishes pre-posted receives, polls the network completion
// queue, and reacts to completions (reactions 3–8 of Figure 2). It returns
// the number of network completions processed. Any thread may call
// Progress on any device; concurrent polls are resolved by try-locks (one
// poller proceeds, others return immediately).
func (d *Device) Progress() int {
	return d.ProgressW(d.worker)
}

// ProgressW is Progress with an explicit packet-pool worker, letting a
// goroutine that registered its own worker keep packet traffic on its
// local deque.
//
// The common case by far is "nothing to do": pollers spin on progress far
// more often than completions arrive, so the empty round is three plain
// loads — backlog flag, receive deficit, CQE-ring peek — with no lock, no
// atomic write, and no batch-buffer traffic. Everything else lives in the
// slow path.
func (d *Device) ProgressW(w *packet.Worker) int {
	// The failure-domain tick runs BEFORE the empty check: a rank
	// spinning on progress with nothing but a parked receive from a dead
	// peer has an empty backlog, no deficit, and an empty CQ — only the
	// tick can wake it (dead-rank sweep, rendezvous timeout scan). The
	// attention flag keeps that wake-up path off the fault-free spin: it
	// is raised by kill notifications and armed timeouts, not polled for.
	if d.attention.Load() {
		d.tick()
	}
	if !d.bqNonEmpty.Load() && d.recvDeficit.Load() <= 0 && d.net.CQEmpty() {
		return 0
	}
	return d.progressSlow(w)
}

// progressSlow is the found-work half of ProgressW.
func (d *Device) progressSlow(w *packet.Worker) int {
	// (3) retry postponed requests first, preserving their order.
	if d.bqNonEmpty.Load() {
		drained := d.drainBacklog()
		if drained > 0 && d.tel.Counting() {
			d.tc.BacklogDrains.Add(int64(drained))
		}
	}

	// (7) keep the device supplied with pre-posted receives.
	if d.recvDeficit.Load() > 0 {
		d.replenish(w)
	}

	// (4) poll the device for completed operations. One poller at a time:
	// the batch buffer is owned by whoever holds pollMu, and a concurrent
	// poller returning early loses nothing (the winner drains the CQ).
	if !d.pollMu.TryLock() {
		return 0
	}
	// The round's owner pays the cross-domain cost once when polling from
	// a remote domain (CQE lines and packet slabs crossing the socket
	// interconnect); losers of the try-lock did no CQ work and pay
	// nothing, and the empty-poll fast path stays free.
	d.crossDelay(w)
	comps := d.compBatch
	n, err := d.net.PollCQ(comps)
	if err != nil || n == 0 {
		d.pollMu.Unlock()
		return 0
	}
	for i := 0; i < n; i++ {
		d.handleCompletion(&comps[i], w)
		comps[i] = network.Completion{} // drop references for the GC
	}
	d.pollMu.Unlock()
	d.tc.ProgressRounds.Add(1)
	d.tc.Completions.Add(int64(n))
	return n
}

// handleCompletion reacts to one network completion.
func (d *Device) handleCompletion(c *network.Completion, w *packet.Worker) {
	switch c.Kind {
	case fabric.TxDone:
		if c.Ctx != nil {
			if op, ok := c.Ctx.(*sendOp); ok {
				d.completeSend(op)
			}
		}
	case fabric.RxSend:
		pkt := c.Ctx.(*packet.Packet)
		d.recvDeficit.Add(1)
		d.handleRxPacket(pkt, c.Src, c.Len, w)
	case fabric.RxWriteImm:
		d.handleWriteImm(c.Src, c.Imm, c.Len)
	case fabric.ReadDone:
		if op, ok := c.Ctx.(*sendOp); ok {
			d.completeSend(op)
		}
	}
}

// completeSend is the source-side completion fire (reaction 6): latency
// sample, lifecycle event, then the completion-object signal. The sendOp
// may carry no completion object at all — it then exists only to bring
// its post timestamp to this point.
func (d *Device) completeSend(op *sendOp) {
	if op.t0 != 0 {
		dt := telemetry.Now() - op.t0
		if op.rdvAM {
			d.tel.AMRoundTrip().Record(dt)
		} else {
			d.tel.PostLatency().Record(dt)
		}
	}
	if d.tel.Tracing() {
		d.ring.Add(telemetry.EvComplete, d.Index(), op.st.Rank, uint64(uint32(op.st.Tag)))
	}
	if op.comp != nil {
		op.comp.Signal(op.st)
	}
}

// handleRxPacket dispatches an arrived packet by wire kind.
func (d *Device) handleRxPacket(pkt *packet.Packet, src, length int, w *packet.Worker) {
	h := decodeHeader(pkt.Data)
	payload := pkt.Data[headerSize:length]
	switch h.kind {
	case kEager:
		// (5) insert the incoming send into the matching engine.
		eng := d.rt.engineByID(h.engine)
		key := matching.MakeKey(src, int(h.tag), h.policy)
		arrival := &eagerArrival{pkt: pkt, src: src, tag: int(h.tag), size: int(h.size)}
		if d.tel.Tracing() {
			d.ring.Add(telemetry.EvDeliver, d.Index(), src, uint64(uint32(h.tag)))
		}
		if m, ok := eng.Insert(key, matching.Send, arrival); ok {
			if d.tel.Counting() {
				d.tc.MatchHits.Add(1)
			}
			rop := m.(*recvOp)
			d.completeEagerRecv(rop, arrival, w)
		} else if d.tel.Counting() {
			d.tc.MatchUnexpected.Add(1)
		}
		// Unmatched: the packet stays parked in the engine until a recv
		// arrives; it is recycled in completeEagerRecv.
	case kEagerAM:
		// (6) deliver to the registered remote target. Table handlers fire
		// inline with the payload still in the packet — zero-copy, so the
		// buffer is only valid during the call (the packet recycles right
		// after). Completion objects may retain their status indefinitely
		// (queues do), so they get a private copy.
		st := base.Status{
			State: base.Done, Rank: src, Tag: int(h.tag),
			Buffer: payload, Size: len(payload),
		}
		if d.tel.Tracing() {
			d.ring.Add(telemetry.EvDeliver, d.Index(), src, uint64(uint32(h.tag)))
		}
		if fn := d.rt.lookupHandler(h.rcomp); fn != nil {
			if d.tel.Counting() {
				d.tc.AMFires.Add(1)
			}
			fn(st)
		} else if comp := d.rt.lookupRComp(h.rcomp); comp != nil {
			if d.tel.Counting() {
				d.tc.AMSignals.Add(1)
			}
			data := make([]byte, len(payload))
			copy(data, payload)
			st.Buffer = data
			comp.Signal(st)
		} else if d.tel.Counting() {
			d.tc.AMDrops.Add(1)
		}
		w.Put(pkt)
	case kRTS:
		if d.tel.Counting() {
			d.tc.RTSRecv.Add(1)
		}
		if !d.rdvAdmit(seenKey(src, h)) {
			// Retransmitted RTS: already parked, invited (RTR re-sent by
			// rdvAdmit), or complete. Never re-insert into the engine.
			w.Put(pkt)
			return
		}
		eng := d.rt.engineByID(h.engine)
		key := matching.MakeKey(src, int(h.tag), h.policy)
		arrival := &rtsArrival{src: src, tag: int(h.tag), size: int(h.size), token: h.token, seq: h.rkey, dev: d}
		if m, ok := eng.Insert(key, matching.Send, arrival); ok {
			if d.tel.Counting() {
				d.tc.MatchHits.Add(1)
			}
			rop := m.(*recvOp)
			d.startRTR(rop, arrival)
		} else if d.tel.Counting() {
			d.tc.MatchUnexpected.Add(1)
		}
		w.Put(pkt)
	case kRTSAM:
		// Rendezvous active message: allocate the delivery buffer — from
		// the registered AM allocator for handler targets, plain make
		// otherwise — and invite the data. The RTR goes back through this
		// device, the one the RTS arrived on, which is also where the
		// handler will fire when the payload lands (arrival-device
		// correctness; see startRTR).
		if d.tel.Counting() {
			d.tc.RTSRecv.Add(1)
		}
		if !d.rdvAdmit(seenKey(src, h)) {
			w.Put(pkt)
			return
		}
		buf, owner := d.rt.allocAM(int(h.size), h.rcomp)
		d.respondRTR(seenKey(src, h), h.token, &rdvState{
			isAM: true, rcomp: h.rcomp, buf: buf, alloc: owner, src: src, tag: int(h.tag),
		})
		w.Put(pkt)
	case kRTR:
		// (8, 10) continue the rendezvous protocol: write the payload into
		// the receiver's registered buffer.
		d.continueRendezvous(src, h)
		w.Put(pkt)
	default:
		// Unknown kind: drop the packet. This would be a wire-corruption
		// bug in a real system; tests assert it never happens.
		w.Put(pkt)
	}
}

// completeEagerRecv copies a matched eager arrival into the posted receive
// buffer and signals its completion object.
func (d *Device) completeEagerRecv(rop *recvOp, ea *eagerArrival, w *packet.Worker) {
	n := copy(rop.buf, ea.pkt.Data[headerSize:headerSize+ea.size])
	w.Put(ea.pkt)
	rop.comp.Signal(base.Status{
		State: base.Done, Rank: ea.src, Tag: ea.tag,
		Buffer: rop.buf[:n], Size: n, Ctx: rop.ctx,
	})
}

// startRTR reacts to a matched RTS: register the receive buffer and send
// the RTR reply. Must run on the device whose endpoint the RTS arrived
// on — NOT the device the receive was posted to, when those differ: the
// receiver token and registered memory live in this device's tables, and
// the RTR names this device (header size field) as the write-imm target,
// so the payload must land here ("write-imm for unknown recv token"
// otherwise). The sender side is addressed explicitly: the RTR goes to
// the device named in the sender token's upper half.
func (d *Device) startRTR(rop *recvOp, rts *rtsArrival) {
	size := rts.size
	if size > len(rop.buf) {
		size = len(rop.buf) // truncated receive, like MPI_ERR_TRUNCATE avoided by convention
	}
	key := rdvSeenKey{src: int32(rts.src), sdev: int32(rts.token >> 32), seq: rts.seq}
	d.respondRTR(key, rts.token, &rdvState{
		buf: rop.buf[:size], comp: rop.comp, ctx: rop.ctx, src: rts.src, tag: rts.tag,
	})
}

// rdvState tracks one receiver-side rendezvous in flight.
type rdvState struct {
	isAM  bool
	rcomp base.RComp   // AM: target completion handle
	comp  base.Comp    // send-recv: posted receive's completion object
	alloc *AMAllocator // AM: allocator owning buf (nil = receiver owns it)
	ctx   any
	buf   []byte
	rkey  uint64
	src   int
	tag   int

	// Retransmit state. The stored RTR header is re-sent verbatim on
	// timeout — same receiver token, same rkey — so a duplicate RTR at the
	// sender is suppressed by the token generation and a duplicate write
	// by the receiver token generation; the handshake stays idempotent.
	// seen names the handshake in the seen-set; its sdev is the sender
	// device the RTR is addressed to. lastEpoch is atomic because the timeout scanner reads it
	// concurrently with the arming store; 0 = unarmed.
	seen      rdvSeenKey
	hdr       header
	attempts  int32
	lastEpoch atomic.Uint64
}

// respondRTR registers st.buf, stores the rendezvous state and sends the
// RTR control message — addressed to the device the RTS was posted from
// (its index rides in the sender token's upper half), which is the only
// device whose token table knows the send. Transient failures are parked
// on the backlog queue — this path runs inside the progress engine or a
// posting call that already matched, so it cannot bounce a retry to the
// user (§5.1.5); fatal failures error-complete the receive.
func (d *Device) respondRTR(key rdvSeenKey, senderToken uint64, st *rdvState) {
	st.rkey = d.net.RegisterMem(st.buf)
	rtoken := d.tokens.alloc(st)
	hdr := header{
		kind:  kRTR,
		rcomp: base.RComp(rtoken),
		size:  uint32(d.Index()),
		token: senderToken,
		rkey:  st.rkey,
	}
	st.seen = key
	st.hdr = hdr
	d.rdvInvited(key, hdr)
	d.armTimeout(&st.lastEpoch)
	if d.tel.Counting() {
		d.tc.RTRSent.Add(1)
	}
	if d.tel.Tracing() {
		d.ring.Add(telemetry.EvRTR, d.Index(), st.src, senderToken)
	}
	d.sendControl(control{dst: st.src, rdev: int(key.sdev), hdr: hdr, tok: rtoken, owner: st})
}

// sendControl emits a protocol control message from inside the progress
// engine, where a transient failure cannot bounce to a user: it parks on
// the backlog. A fatal failure — now or on a later backlog drain — is
// reported through the message's owner exactly once.
func (d *Device) sendControl(c control) {
	c.w = d.worker
	if _, err := submit(d, c, true); err != nil {
		c.fail(d, err)
	}
}

// continueRendezvous is the sender-side RTR reaction: RDMA-write the
// payload into the receiver's buffer with the receiver token as immediate.
func (d *Device) continueRendezvous(src int, h header) {
	v := d.tokens.release(uint32(h.token))
	if v == nil {
		// Duplicate RTR: the send token's generation bumped when the first
		// RTR released it (or the send already timed out). Suppress — the
		// write for the live generation is (or was) in flight.
		if d.tel.Counting() {
			d.tc.DupSuppressed.Add(1)
		}
		return
	}
	ss := v.(*sendState)
	if d.tel.Counting() {
		d.tc.RdvWrite.Add(1)
	}
	if d.tel.Tracing() {
		d.ring.Add(telemetry.EvWrite, d.Index(), src, h.token)
	}
	write := rma{
		w: d.worker, rank: src, rdev: int(h.size), rkey: h.rkey, buf: ss.buf,
		imm: encodeRdvImm(uint32(h.rcomp)), hasImm: true,
	}
	if ss.comp != nil || ss.t0 != 0 {
		write.ctx = &sendOp{comp: ss.comp, st: ss.st, t0: ss.t0, rdvAM: ss.isAM}
	}
	// A transient failure parks (this runs inside the progress engine). A
	// fatal one (peer died between RTR and write) is reported here: the
	// send token is already released, so the timeout scanner cannot.
	if _, err := submit(d, write, true); err != nil {
		write.fail(d, err)
	}
}

// handleWriteImm reacts to an incoming RMA write with immediate: either
// the completion of a rendezvous receive or a put-with-signal
// notification.
func (d *Device) handleWriteImm(src int, imm uint64, length int) {
	if isRdvImm(imm) {
		rtoken := uint32(imm)
		v := d.tokens.release(rtoken)
		if v == nil {
			// Duplicate write (a retransmitted RTR can double the payload
			// write) or a receive that already timed out: the receiver
			// token's generation bumped on the first release. Suppress.
			if d.tel.Counting() {
				d.tc.DupSuppressed.Add(1)
			}
			return
		}
		st := v.(*rdvState)
		d.noteSeenDone(st.seen)
		d.net.DeregisterMem(st.rkey)
		status := base.Status{
			State: base.Done, Rank: st.src, Tag: st.tag,
			Buffer: st.buf[:length], Size: length, Ctx: st.ctx,
		}
		if d.tel.Tracing() {
			d.ring.Add(telemetry.EvDeliver, d.Index(), st.src, uint64(rtoken))
		}
		if st.isAM {
			// Rendezvous AM arrival: fire the handler (poller context) or
			// signal the completion object, then hand the buffer back to
			// its allocator if one owns it. A stale handler handle drops
			// the delivery; the buffer is still reclaimed.
			d.rt.fireAM(d, st.rcomp, status)
			if st.alloc != nil && st.alloc.Free != nil {
				st.alloc.Free(st.buf)
			}
			return
		}
		st.comp.Signal(status)
		return
	}
	// Put with signal: notify the registered remote target (completion
	// object or table handler; handler handles survive the 31-bit immediate
	// encoding because their flag sits at bit 30).
	rc, tag := decodePutImm(imm)
	d.rt.fireAM(d, rc, base.Status{
		State: base.Done, Rank: src, Tag: tag, Size: length,
	})
}

// engineByID resolves the wire engine id to a matching engine; id 0 is
// the runtime default. Unknown ids fall back to the default engine, which
// turns a mismatched-engine bug into an unmatched message rather than a
// crash (tests assert engines are registered symmetrically).
func (rt *Runtime) engineByID(id uint16) *matching.Engine {
	if id == 0 {
		return rt.defME
	}
	idx := int(id) - 1
	if idx >= rt.engines.Len() {
		return rt.defME
	}
	return rt.engines.Get(idx)
}
