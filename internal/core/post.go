package core

import (
	"fmt"
	"sync/atomic"

	"lci/internal/base"
	"lci/internal/matching"
	"lci/internal/network"
	"lci/internal/packet"
	"lci/internal/telemetry"
)

// Options are the optional arguments of a communication posting operation.
// The public package converts its functional options into this struct —
// Go's equivalent of the paper's named-parameter idiom (§4.1).
type Options struct {
	// Device selects the posting device. When nil, the post uses the
	// Affinity's pinned device if one is set, and otherwise stripes
	// round-robin across the runtime's device pool.
	Device *Device
	// Affinity supplies the posting goroutine's pinned device and packet
	// worker in one handle (Runtime.RegisterThread). Device and Worker,
	// when set, individually override the affinity's choices.
	Affinity *Affinity
	// Engine selects the matching engine (default: the runtime default).
	Engine *MatchEngine
	// Policy is the matching policy (§4.3.2).
	Policy base.MatchingPolicy
	// RComp names a remote completion target — a completion object or a
	// table handler (turns a send into an active message, or a put into a
	// put-with-signal; Table 1).
	RComp base.RComp
	// Tag is the message tag for posting surfaces that pass it as an
	// option rather than positionally (the public PostAM). The core Post*
	// entry points take tag positionally and ignore this field.
	Tag int
	// LocalComp is the source-side completion object for posting surfaces
	// that pass it as an option rather than positionally (the public
	// PostAM). The core Post* entry points take comp positionally and
	// ignore this field.
	LocalComp base.Comp
	// Remote supplies the remote buffer for RMA operations (Table 1).
	Remote *RemoteBuffer
	// RemoteDevice selects which peer endpoint handles the operation; it
	// is honored only when RemoteDeviceSet is true (device 0 included).
	// Without the flag the operation goes to the default endpoint: the
	// posting device's own index (symmetric jobs pair device i with
	// device i).
	RemoteDevice int
	// RemoteDeviceSet marks RemoteDevice as explicitly chosen, making
	// device 0 addressable (the bare int cannot distinguish "unset" from
	// "device 0").
	RemoteDeviceSet bool
	// Ctx is an opaque user context copied into completion statuses.
	Ctx any
	// Worker overrides the packet-pool worker (goroutines that registered
	// their own worker pass it here for locality).
	Worker *packet.Worker
	// DisallowRetry diverts transient failures to the device's backlog
	// queue instead of returning a Retry status; the operation then
	// reports Posted (§5.4, reaction 2).
	DisallowRetry bool
	// CollAlgorithm forces the algorithm of a collective operation
	// (internal/coll; empty selects by message size and rank count).
	// Point-to-point posting operations ignore it.
	CollAlgorithm string
}

// RemoteBuffer names registered remote memory for RMA.
type RemoteBuffer struct {
	RKey   uint64
	Offset uint64
	Size   int // get: number of bytes to read
}

// sendOp carries the source-side completion through the network layer.
// t0 is the post timestamp when latency histograms were live at post time
// (0 = untimed); rdvAM routes the sample to the AM round-trip histogram
// (the rendezvous-AM RTS→RTR→write cycle) instead of the post latency.
type sendOp struct {
	comp  base.Comp
	st    base.Status
	t0    int64
	rdvAM bool
}

// recvOp is a posted receive parked in the matching engine.
type recvOp struct {
	buf  []byte
	comp base.Comp
	ctx  any
}

// eagerArrival is an unexpected eager message parked in the matching
// engine (it owns its packet until matched).
type eagerArrival struct {
	pkt  *packet.Packet
	src  int
	tag  int
	size int
}

// rtsArrival is an unexpected rendezvous announcement parked in the
// matching engine. dev is the device whose endpoint the RTS arrived on:
// the RTR reply must travel back through it — the sender's token lives
// on the device that posted the RTS, and wire addressing pairs endpoint
// indices — even when the matching receive is later posted on a
// different pool device.
type rtsArrival struct {
	src   int
	tag   int
	size  int
	token uint64
	seq   uint64 // sender device's RTS sequence (seen-set key)
	dev   *Device
}

// sendState is an in-flight rendezvous send awaiting its RTR. t0/isAM
// ride along so the payload write's sendOp can place its latency sample
// (see sendOp).
type sendState struct {
	buf  []byte
	comp base.Comp
	st   base.Status
	t0   int64
	isAM bool

	// Retransmit state: the RTS header is stored so the timeout scanner
	// can re-send it verbatim — duplicates at the receiver dedup on (src,
	// token). lastEpoch is atomic because the scanner reads it
	// concurrently with the arming store (the store also publishes hdr to
	// the scanner); 0 = unarmed.
	dst       int
	rdev      int
	hdr       header
	attempts  int32
	lastEpoch atomic.Uint64
}

func (o *Options) device(rt *Runtime) *Device {
	if o.Device != nil {
		return o.Device
	}
	if o.Affinity != nil {
		return o.Affinity.dev
	}
	if o.Worker != nil {
		// The worker's slab domain stands in for the posting thread's
		// domain: unpinned posts prefer same-domain devices before
		// falling back to the global round-robin stripe.
		return rt.stripeDeviceFrom(o.Worker.Domain())
	}
	return rt.stripeDevice()
}

func (o *Options) engine(rt *Runtime) (*matching.Engine, uint16) {
	if o.Engine != nil {
		return o.Engine.eng, o.Engine.id
	}
	return rt.defME, 0
}

func (o *Options) worker(d *Device) *packet.Worker {
	if o.Worker != nil {
		return o.Worker
	}
	if o.Affinity != nil {
		return o.Affinity.worker
	}
	return d.worker
}

// ring picks the lifecycle trace ring for a posting call: the posting
// thread's own ring when the post carries an Affinity (single-writer),
// the device's ring otherwise. Only evaluated under Tracing().
func (o *Options) ring(d *Device) *telemetry.Ring {
	if o.Affinity != nil && o.Affinity.ring != nil {
		return o.Affinity.ring
	}
	return d.ring
}

func (o *Options) remoteDev(d *Device) int {
	if o.RemoteDeviceSet {
		return o.RemoteDevice
	}
	return d.Index()
}

// PostComm is the generic communication posting operation (§4.2.4,
// Table 1). The direction plus the presence of a remote buffer and/or a
// remote completion object select the paradigm.
func (rt *Runtime) PostComm(dir base.Direction, rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	switch dir {
	case base.Out:
		switch {
		case opts.Remote == nil && opts.RComp == base.InvalidRComp:
			return rt.postSend(rank, buf, tag, comp, opts)
		case opts.Remote == nil:
			return rt.postAM(rank, buf, tag, comp, opts)
		default:
			return rt.postPut(rank, buf, tag, comp, opts)
		}
	case base.In:
		switch {
		case opts.Remote == nil && opts.RComp == base.InvalidRComp:
			return rt.postRecv(rank, buf, tag, comp, opts)
		case opts.Remote == nil:
			// IN + remote completion without remote buffer is the one
			// invalid combination in Table 1.
			return base.Status{}, fmt.Errorf("%w: IN direction with a remote completion requires a remote buffer", ErrInvalidArgument)
		case opts.RComp == base.InvalidRComp:
			return rt.postGet(rank, buf, comp, opts)
		default:
			// Get with signal: valid per Table 1, unimplemented per §5.3
			// (no RDMA-read-with-notification on the target interconnects).
			return base.Status{}, fmt.Errorf("%w: get with signal is not implemented (no RDMA read with notification)", ErrInvalidArgument)
		}
	default:
		return base.Status{}, fmt.Errorf("%w: direction %d", ErrInvalidArgument, dir)
	}
}

// PostSend posts a two-sided send.
func (rt *Runtime) PostSend(rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	return rt.postSend(rank, buf, tag, comp, opts)
}

// PostRecv posts a two-sided receive.
func (rt *Runtime) PostRecv(rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	return rt.postRecv(rank, buf, tag, comp, opts)
}

// PostAM posts an active message; opts.RComp names the target completion.
func (rt *Runtime) PostAM(rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	if opts.RComp == base.InvalidRComp {
		return base.Status{}, fmt.Errorf("%w: active message requires a remote completion handle", ErrInvalidArgument)
	}
	return rt.postAM(rank, buf, tag, comp, opts)
}

// PostPut posts an RMA put; opts.Remote names the target buffer and an
// optional opts.RComp adds the signal.
func (rt *Runtime) PostPut(rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	if opts.Remote == nil {
		return base.Status{}, fmt.Errorf("%w: put requires a remote buffer", ErrInvalidArgument)
	}
	return rt.postPut(rank, buf, tag, comp, opts)
}

// PostGet posts an RMA get; opts.Remote names the source buffer.
func (rt *Runtime) PostGet(rank int, buf []byte, comp base.Comp, opts Options) (base.Status, error) {
	if opts.Remote == nil {
		return base.Status{}, fmt.Errorf("%w: get requires a remote buffer", ErrInvalidArgument)
	}
	return rt.postGet(rank, buf, comp, opts)
}

func (rt *Runtime) checkCommon(rank int, buf []byte) error {
	if rt.closed {
		return ErrClosed
	}
	if rank < 0 || rank >= rt.nranks {
		return fmt.Errorf("%w: rank %d out of range [0,%d)", ErrInvalidArgument, rank, rt.nranks)
	}
	if len(buf) > rt.cfg.MaxMessageSize {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(buf), rt.cfg.MaxMessageSize)
	}
	return nil
}

// postEager runs the shared eager path for sends and AMs. It returns the
// final status.
func (rt *Runtime) postEager(rank int, buf []byte, hdr header, comp base.Comp, opts Options, d *Device) (base.Status, error) {
	s := eagerSend{
		w: opts.worker(d), rank: rank, rdev: opts.remoteDev(d), hdr: hdr, buf: buf,
		comp: comp, ctx: opts.Ctx, inject: len(buf) <= rt.cfg.InjectSize,
	}
	if comp != nil && !s.inject && d.tel.Timing() {
		s.t0 = telemetry.Now()
	}
	if st, err := submit(d, s, opts.DisallowRetry); err != nil || st.State != base.Done {
		return st, err
	}
	if s.inject {
		// Inject: immediate completion, completion object NOT signaled.
		if d.tel.Counting() {
			d.tc.PostInline.Add(1)
		}
		if d.tel.Tracing() {
			opts.ring(d).Add(telemetry.EvInject, d.Index(), rank, uint64(uint32(hdr.tag)))
		}
		return base.Status{
			State: base.Done, Rank: rank, Tag: int(hdr.tag),
			Buffer: buf, Size: len(buf), Ctx: opts.Ctx,
		}, nil
	}
	if d.tel.Counting() {
		d.tc.PostEager.Add(1)
	}
	if d.tel.Tracing() {
		opts.ring(d).Add(telemetry.EvPost, d.Index(), rank, uint64(uint32(hdr.tag)))
	}
	return base.Status{State: base.Posted}, nil
}

// postRendezvous runs the shared rendezvous announcement for large sends
// and AMs.
func (rt *Runtime) postRendezvous(rank int, buf []byte, hdr header, comp base.Comp, opts Options, d *Device) (base.Status, error) {
	ss := &sendState{buf: buf, comp: comp, st: base.Status{
		State: base.Done, Rank: rank, Tag: int(hdr.tag), Buffer: buf, Size: len(buf), Ctx: opts.Ctx,
	}, isAM: hdr.kind == kRTSAM, dst: rank, rdev: opts.remoteDev(d)}
	if d.tel.Timing() {
		ss.t0 = telemetry.Now()
	}
	// The upper half of the wire token names the device the RTS is posted
	// from: the sender state lives in that device's token table, so the
	// receiver must address the RTR to it explicitly — endpoint-index
	// pairing only reaches it when the remote device happens to mirror the
	// posting device (it doesn't under WithRemoteDevice).
	token := d.tokens.alloc(ss)
	hdr.token = uint64(d.Index())<<32 | uint64(token)
	hdr.size = uint32(len(buf))
	hdr.rkey = d.rtsSeq.Add(1)
	ss.hdr = hdr
	d.armTimeout(&ss.lastEpoch)

	st, err := submit(d, control{w: opts.worker(d), dst: rank, rdev: ss.rdev, hdr: hdr, tok: token, owner: ss}, opts.DisallowRetry)
	if err != nil || st.State == base.Retry {
		// Neither sent nor parked: give the token back. releaseIf: the
		// timeout scanner may already own the failure fire; if it does,
		// the op was posted as far as the caller is concerned and the
		// outcome arrives through the completion object.
		if !d.tokens.releaseIf(token, ss) {
			return base.Status{State: base.Posted}, nil
		}
		return st, err
	}
	if st.State == base.Posted {
		return st, nil // parked
	}
	if d.tel.Counting() {
		d.tc.PostRendezvous.Add(1)
	}
	if d.tel.Tracing() {
		opts.ring(d).Add(telemetry.EvRTS, d.Index(), rank, hdr.token)
	}
	return base.Status{State: base.Posted}, nil
}

func (rt *Runtime) postSend(rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	if err := rt.checkCommon(rank, buf); err != nil {
		return base.Status{}, err
	}
	d := opts.device(rt)
	_, engID := opts.engine(rt)
	hdr := header{policy: opts.Policy, engine: engID, tag: int32(tag), size: uint32(len(buf))}
	if len(buf) <= rt.MaxEager() {
		hdr.kind = kEager
		return rt.postEager(rank, buf, hdr, comp, opts, d)
	}
	hdr.kind = kRTS
	return rt.postRendezvous(rank, buf, hdr, comp, opts, d)
}

func (rt *Runtime) postAM(rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	if err := rt.checkCommon(rank, buf); err != nil {
		return base.Status{}, err
	}
	d := opts.device(rt)
	hdr := header{tag: int32(tag), rcomp: opts.RComp, size: uint32(len(buf))}
	if len(buf) <= rt.MaxEager() {
		hdr.kind = kEagerAM
		return rt.postEager(rank, buf, hdr, comp, opts, d)
	}
	hdr.kind = kRTSAM
	return rt.postRendezvous(rank, buf, hdr, comp, opts, d)
}

func (rt *Runtime) postRecv(rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	if err := rt.checkCommon(rank, buf); err != nil {
		return base.Status{}, err
	}
	if comp == nil {
		return base.Status{}, fmt.Errorf("%w: receive requires a completion object", ErrInvalidArgument)
	}
	// A receive naming a concrete source rank can only ever match that
	// rank: refuse it outright when the rank is dead, instead of parking
	// it until the next death sweep. Wildcard-rank receives stay postable.
	if opts.Policy == base.MatchRankTag || opts.Policy == base.MatchRankOnly {
		if inj := rt.injector(); inj != nil && inj.Dead(rank) {
			return base.Status{}, network.ErrPeerDead
		}
	}
	d := opts.device(rt)
	eng, _ := opts.engine(rt)
	key := matching.MakeKey(rank, tag, opts.Policy)
	rop := &recvOp{buf: buf, comp: comp, ctx: opts.Ctx}

	m, ok := eng.Insert(key, matching.Recv, rop)
	if !ok {
		// (1) parked in the matching engine awaiting the send.
		if d.tel.Counting() {
			d.tc.RecvPosted.Add(1)
		}
		return base.Status{State: base.Posted}, nil
	}
	if d.tel.Counting() {
		d.tc.RecvMatched.Add(1)
	}
	switch arr := m.(type) {
	case *eagerArrival:
		// (9) matched an unexpected eager message: complete immediately.
		n := copy(buf, arr.pkt.Data[headerSize:headerSize+arr.size])
		opts.worker(d).Put(arr.pkt)
		return base.Status{
			State: base.Done, Rank: arr.src, Tag: arr.tag,
			Buffer: buf[:n], Size: n, Ctx: opts.Ctx,
		}, nil
	case *rtsArrival:
		// (10) matched a rendezvous announcement: reply with RTR through
		// the device the RTS arrived on (the sender's token and the wire
		// pairing live there, not on this receive's posting device); the
		// receive completes when the data lands.
		arr.dev.startRTR(rop, arr)
		return base.Status{State: base.Posted}, nil
	default:
		panic("lci: unexpected match type")
	}
}

func (rt *Runtime) postPut(rank int, buf []byte, tag int, comp base.Comp, opts Options) (base.Status, error) {
	if err := rt.checkCommon(rank, buf); err != nil {
		return base.Status{}, err
	}
	d := opts.device(rt)
	var imm uint64
	hasImm := false
	if opts.RComp != base.InvalidRComp {
		imm = encodePutImm(opts.RComp, tag)
		hasImm = true
	}
	r := rma{
		w: opts.worker(d), rank: rank, rdev: opts.remoteDev(d),
		rkey: opts.Remote.RKey, off: opts.Remote.Offset, buf: buf, imm: imm, hasImm: hasImm,
	}
	if comp != nil {
		op := &sendOp{comp: comp, st: base.Status{
			State: base.Done, Rank: rank, Tag: tag, Buffer: buf, Size: len(buf), Ctx: opts.Ctx,
		}}
		if d.tel.Timing() {
			op.t0 = telemetry.Now()
		}
		r.ctx = op
	}
	if st, err := submit(d, r, opts.DisallowRetry); err != nil || st.State != base.Done {
		return st, err
	}
	if d.tel.Counting() {
		d.tc.PostPut.Add(1)
	}
	if d.tel.Tracing() {
		opts.ring(d).Add(telemetry.EvPost, d.Index(), rank, uint64(uint32(tag)))
	}
	return base.Status{State: base.Posted}, nil
}

func (rt *Runtime) postGet(rank int, buf []byte, comp base.Comp, opts Options) (base.Status, error) {
	if err := rt.checkCommon(rank, buf); err != nil {
		return base.Status{}, err
	}
	d := opts.device(rt)
	into := buf
	if opts.Remote.Size > 0 && opts.Remote.Size < len(into) {
		into = into[:opts.Remote.Size]
	}
	r := rma{
		read: true, w: opts.worker(d), rank: rank,
		rkey: opts.Remote.RKey, off: opts.Remote.Offset, buf: into,
	}
	if comp != nil {
		op := &sendOp{comp: comp, st: base.Status{
			State: base.Done, Rank: rank, Buffer: into, Size: len(into), Ctx: opts.Ctx,
		}}
		if d.tel.Timing() {
			op.t0 = telemetry.Now()
		}
		r.ctx = op
	}
	if st, err := submit(d, r, opts.DisallowRetry); err != nil || st.State != base.Done {
		return st, err
	}
	if d.tel.Counting() {
		d.tc.PostGet.Add(1)
	}
	if d.tel.Tracing() {
		opts.ring(d).Add(telemetry.EvPost, d.Index(), rank, 0)
	}
	return base.Status{State: base.Posted}, nil
}

// RegisterMemory registers buf on the device for remote access and
// returns its rkey (§4.3.1). Registration is optional for local buffers
// and mandatory for remote buffers.
func (rt *Runtime) RegisterMemory(d *Device, buf []byte) (uint64, error) {
	if d == nil {
		d = rt.defDev
	}
	return d.net.RegisterMem(buf), nil
}

// DeregisterMemory removes a registration.
func (rt *Runtime) DeregisterMemory(d *Device, rkey uint64) error {
	if d == nil {
		d = rt.defDev
	}
	d.net.DeregisterMem(rkey)
	return nil
}
