package lci

import "lci/internal/core"

// Option is an optional argument of a communication posting operation —
// the Go rendering of the paper's named-parameter idiom (§4.1):
//
//	C++:  post_send_x(rank, buf, size, tag, comp).device(d)();
//	Go:   rt.PostSend(rank, buf, tag, comp, lci.WithDevice(d))
//
// Options compose in any order, and every posting operation accepts every
// option (irrelevant ones are ignored), exactly like the C++ `_x`
// variants; a repeated option's last occurrence wins.
//
// An Option is a plain value — which argument it sets plus its operand —
// built by the With* constructors. Posting applies a list of them with one
// switch, so passing options costs no heap allocation: the small-message
// path the paper optimizes stays allocation-free through the public API.
type Option struct {
	kind optKind
	// The operand. ref holds pointers, completion objects and user
	// contexts as given, so no value is boxed; n holds the integer
	// operands, off a remote buffer's offset (its rkey is in n), and name
	// a collective algorithm.
	n    uint64
	off  uint64
	ref  any
	name string
}

type optKind uint8

const (
	optNone optKind = iota
	optDevice
	optAffinity
	optEngine
	optPolicy
	optRComp
	optTag
	optLocalComp
	optRemoteBuffer
	optRemoteSize
	optRemoteDevice
	optContext
	optWorker
	optCollAlgorithm
	optNoRetry
)

// WithDevice posts the operation on a specific device instead of letting
// the runtime stripe it across the device pool. One device per thread is
// the dedicated-resource mode of the paper's evaluation.
func WithDevice(d *Device) Option { return Option{kind: optDevice, ref: d} }

// WithAffinity posts with a goroutine's pinned device and packet worker
// (Runtime.RegisterThread) in one option — the multi-device analogue of
// WithDevice+WithWorker.
func WithAffinity(a *Affinity) Option { return Option{kind: optAffinity, ref: a} }

// WithMatchingEngine matches on a specific engine instead of the runtime
// default (send/recv only).
func WithMatchingEngine(me *MatchEngine) Option { return Option{kind: optEngine, ref: me} }

// WithPolicy sets the matching policy. Both sides of a send-receive pair
// must agree on the policy (restricted wildcard matching, §4.3.2).
func WithPolicy(p MatchingPolicy) Option { return Option{kind: optPolicy, n: uint64(p)} }

// WithRemoteComp names a remote completion target registered at the
// destination rank: either a completion object (RegisterRComp — queue,
// counter, sync, graph node) that is signaled with the delivered status,
// or a remote handler (RegisterHandler) that the destination's progress
// engine invokes inline when the message arrives — the paper's
// LCI_COMPLETION_HANDLER paradigm. On a send it selects the
// active-message row of Table 1; on a put it adds the remote signal.
//
// Payloads up to MaxEager travel in one eager packet and, for handler
// targets, are delivered zero-copy (the buffer is valid only during the
// handler call). Larger payloads engage the rendezvous AM path: the RTS
// carries the handle, the target allocates the delivery buffer (via
// SetAMAllocator, plain make by default) and pulls the data, and the
// handler fires once the payload has landed.
func WithRemoteComp(rc RComp) Option { return Option{kind: optRComp, n: uint64(rc)} }

// WithTag sets the message tag on posting operations whose signature does
// not take it positionally (PostAM; default tag 0). AM tags are delivered
// in the status and are purely a payload discriminator — active messages
// never pass through a matching engine.
func WithTag(tag int) Option { return Option{kind: optTag, n: uint64(tag)} }

// WithLocalComp attaches a source-side completion object to posting
// operations whose signature does not take one positionally (PostAM): it
// is signaled when the outgoing payload has been injected (eager) or
// pulled by the target (rendezvous), exactly like the positional comp of
// PostSend. Without it, source-side completion is fire-and-forget.
func WithLocalComp(c Comp) Option { return Option{kind: optLocalComp, ref: c} }

// WithRemoteBuffer names registered remote memory, selecting the RMA
// paradigms of Table 1 (put for OUT, get for IN).
func WithRemoteBuffer(rkey, offset uint64) Option {
	return Option{kind: optRemoteBuffer, n: rkey, off: offset}
}

// WithRemoteSize bounds the bytes moved by a get. Like WithRemoteBuffer,
// it marks the operation as remote-memory access.
func WithRemoteSize(n int) Option { return Option{kind: optRemoteSize, n: uint64(n)} }

// WithRemoteDevice selects which peer endpoint receives the operation
// (default: the posting device's own index — symmetric jobs pair device i
// with device i). Device 0 is explicitly addressable: the option records
// that a choice was made rather than treating 0 as "unset".
func WithRemoteDevice(idx int) Option { return Option{kind: optRemoteDevice, n: uint64(idx)} }

// WithContext attaches an opaque user context that completion statuses
// carry back.
func WithContext(ctx any) Option { return Option{kind: optContext, ref: ctx} }

// WithWorker uses the calling goroutine's registered packet-pool worker
// for packet traffic (locality; see Runtime.RegisterWorker).
func WithWorker(w *Worker) Option { return Option{kind: optWorker, ref: w} }

// WithCollAlgorithm forces a collective's algorithm instead of the
// message-size/rank-count heuristic: CollDissemination (barrier),
// CollFlat / CollBinomial (broadcast, reduce; CollFlat also allgather),
// CollRDouble / CollReduceBcast (allreduce), CollRing (allgather). A
// name the collective does not implement fails the call; every rank must
// choose the same algorithm. Point-to-point posts ignore the option.
func WithCollAlgorithm(name string) Option { return Option{kind: optCollAlgorithm, name: name} }

// WithNoRetry diverts transient resource exhaustion to the device's
// backlog queue instead of returning a Retry status; the post then always
// reports Posted.
func WithNoRetry() Option { return Option{kind: optNoRetry} }

// buildOpts applies opts in order. It is one switch over value options
// with no indirect call, so the result stays on the caller's stack.
func buildOpts(opts []Option) core.Options {
	var o core.Options
	for i := range opts {
		opt := &opts[i]
		switch opt.kind {
		case optDevice:
			o.Device, _ = opt.ref.(*Device)
		case optAffinity:
			o.Affinity, _ = opt.ref.(*Affinity)
		case optEngine:
			o.Engine, _ = opt.ref.(*MatchEngine)
		case optPolicy:
			o.Policy = MatchingPolicy(opt.n)
		case optRComp:
			o.RComp = RComp(opt.n)
		case optTag:
			o.Tag = int(opt.n)
		case optLocalComp:
			o.LocalComp, _ = opt.ref.(Comp)
		case optRemoteBuffer:
			o.Remote.RKey, o.Remote.Offset, o.RemoteSet = opt.n, opt.off, true
		case optRemoteSize:
			o.Remote.Size, o.RemoteSet = int(opt.n), true
		case optRemoteDevice:
			o.RemoteDevice, o.RemoteDeviceSet = int(opt.n), true
		case optContext:
			o.Ctx = opt.ref
		case optWorker:
			o.Worker, _ = opt.ref.(*Worker)
		case optCollAlgorithm:
			o.CollAlgorithm = opt.name
		case optNoRetry:
			o.DisallowRetry = true
		}
	}
	return o
}

// PostComm is the generic communication posting operation (§4.2.4). The
// direction plus WithRemoteBuffer / WithRemoteComp select the paradigm per
// Table 1 of the paper.
func (rt *Runtime) PostComm(dir Direction, rank int, buf []byte, tag int, comp Comp, opts ...Option) (Status, error) {
	return rt.core.PostComm(dir, rank, buf, tag, comp, buildOpts(opts))
}

// PostSend posts a two-sided send of buf to rank with tag. Small messages
// (≤ inject size) complete immediately with Done; eager messages signal
// comp on local completion; large messages use zero-copy rendezvous.
func (rt *Runtime) PostSend(rank int, buf []byte, tag int, comp Comp, opts ...Option) (Status, error) {
	return rt.core.PostSend(rank, buf, tag, comp, buildOpts(opts))
}

// PostRecv posts a receive matching (rank, tag) under the chosen policy.
// comp is signaled with the delivered data when the message lands (or the
// call returns Done if it matched an already-arrived message).
func (rt *Runtime) PostRecv(rank int, buf []byte, tag int, comp Comp, opts ...Option) (Status, error) {
	return rt.core.PostRecv(rank, buf, tag, comp, buildOpts(opts))
}

// PostAM posts an active message: the remote target registered at the
// destination under rcomp — a handler (RegisterHandler), which the
// destination's progress engine invokes inline with the delivered data, or
// a completion object (RegisterRComp), which is signaled with it. Tag and
// source-side completion are optional (WithTag, WithLocalComp):
//
//	rt.PostAM(peer, payload, rcomp)                              // fire and forget
//	rt.PostAM(peer, payload, rcomp, lci.WithTag(7))              // tagged
//	rt.PostAM(peer, payload, rcomp, lci.WithLocalComp(cnt))      // count injections
//
// Payloads up to MaxEager travel eagerly (zero-copy into handlers);
// larger ones use the rendezvous AM path — see WithRemoteComp for the
// protocol and ownership rules.
func (rt *Runtime) PostAM(rank int, buf []byte, rcomp RComp, opts ...Option) (Status, error) {
	o := buildOpts(opts)
	o.RComp = rcomp
	return rt.core.PostAM(rank, buf, o.Tag, o.LocalComp, o)
}

// PostPut writes buf into the remote registered buffer (rkey, offset).
// Add WithRemoteComp for put-with-signal.
func (rt *Runtime) PostPut(rank int, buf []byte, tag int, rkey, offset uint64, comp Comp, opts ...Option) (Status, error) {
	o := buildOpts(opts)
	o.Remote.RKey, o.Remote.Offset, o.RemoteSet = rkey, offset, true
	return rt.core.PostPut(rank, buf, tag, comp, o)
}

// PostGet reads the remote registered buffer (rkey, offset) into buf.
func (rt *Runtime) PostGet(rank int, buf []byte, rkey, offset uint64, comp Comp, opts ...Option) (Status, error) {
	o := buildOpts(opts)
	o.Remote.RKey, o.Remote.Offset, o.RemoteSet = rkey, offset, true
	return rt.core.PostGet(rank, buf, comp, o)
}
