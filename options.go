package lci

import (
	"lci/internal/base"
	"lci/internal/core"
)

// Option is a functional option for communication posting operations —
// the Go rendering of the paper's named-parameter idiom (§4.1):
//
//	C++:  post_send_x(rank, buf, size, tag, comp).device(d)();
//	Go:   rt.PostSend(rank, buf, tag, comp, lci.WithDevice(d))
//
// Options compose in any order, and every posting operation accepts every
// option (irrelevant ones are ignored), exactly like the C++ `_x`
// variants.
type Option func(*core.Options)

// WithDevice posts the operation on a specific device instead of letting
// the runtime stripe it across the device pool. One device per thread is
// the dedicated-resource mode of the paper's evaluation.
func WithDevice(d *Device) Option {
	return func(o *core.Options) { o.Device = d }
}

// WithAffinity posts with a goroutine's pinned device and packet worker
// (Runtime.RegisterThread) in one option — the multi-device analogue of
// WithDevice+WithWorker.
func WithAffinity(a *Affinity) Option {
	return func(o *core.Options) { o.Affinity = a }
}

// WithMatchingEngine matches on a specific engine instead of the runtime
// default (send/recv only).
func WithMatchingEngine(me *MatchEngine) Option {
	return func(o *core.Options) { o.Engine = me }
}

// WithPolicy sets the matching policy. Both sides of a send-receive pair
// must agree on the policy (restricted wildcard matching, §4.3.2).
func WithPolicy(p MatchingPolicy) Option {
	return func(o *core.Options) { o.Policy = p }
}

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
func WithRemoteComp(rc RComp) Option {
	return func(o *core.Options) { o.RComp = rc }
}

// WithTag sets the message tag on posting operations whose signature does
// not take it positionally (PostAM; default tag 0). AM tags are delivered
// in the status and are purely a payload discriminator — active messages
// never pass through a matching engine.
func WithTag(tag int) Option {
	return func(o *core.Options) { o.Tag = tag }
}

// WithLocalComp attaches a source-side completion object to posting
// operations whose signature does not take one positionally (PostAM): it
// is signaled when the outgoing payload has been injected (eager) or
// pulled by the target (rendezvous), exactly like the positional comp of
// PostSend. Without it, source-side completion is fire-and-forget.
func WithLocalComp(c Comp) Option {
	return func(o *core.Options) { o.LocalComp = c }
}

// WithRemoteBuffer names registered remote memory, selecting the RMA
// paradigms of Table 1 (put for OUT, get for IN).
func WithRemoteBuffer(rkey, offset uint64) Option {
	return func(o *core.Options) {
		if o.Remote == nil {
			o.Remote = &core.RemoteBuffer{}
		}
		o.Remote.RKey = rkey
		o.Remote.Offset = offset
	}
}

// WithRemoteSize bounds the bytes moved by a get.
func WithRemoteSize(n int) Option {
	return func(o *core.Options) {
		if o.Remote == nil {
			o.Remote = &core.RemoteBuffer{}
		}
		o.Remote.Size = n
	}
}

// WithRemoteDevice selects which peer endpoint receives the operation
// (default: the posting device's own index — symmetric jobs pair device i
// with device i). Device 0 is explicitly addressable: the option records
// that a choice was made rather than treating 0 as "unset".
func WithRemoteDevice(idx int) Option {
	return func(o *core.Options) {
		o.RemoteDevice = idx
		o.RemoteDeviceSet = true
	}
}

// WithContext attaches an opaque user context that completion statuses
// carry back.
func WithContext(ctx any) Option {
	return func(o *core.Options) { o.Ctx = ctx }
}

// WithWorker uses the calling goroutine's registered packet-pool worker
// for packet traffic (locality; see Runtime.RegisterWorker).
func WithWorker(w *Worker) Option {
	return func(o *core.Options) { o.Worker = w }
}

// WithCollAlgorithm forces a collective's algorithm instead of the
// message-size/rank-count heuristic: CollDissemination (barrier),
// CollFlat / CollBinomial (broadcast, reduce; CollFlat also allgather),
// CollRDouble / CollReduceBcast (allreduce), CollRing (allgather). A
// name the collective does not implement fails the call; every rank must
// choose the same algorithm. Point-to-point posts ignore the option.
func WithCollAlgorithm(name string) Option {
	return func(o *core.Options) { o.CollAlgorithm = name }
}

// WithNoRetry diverts transient resource exhaustion to the device's
// backlog queue instead of returning a Retry status; the post then always
// reports Posted.
func WithNoRetry() Option {
	return func(o *core.Options) { o.DisallowRetry = true }
}

func buildOpts(opts []Option) core.Options {
	var o core.Options
	for _, f := range opts {
		f(&o)
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
	if o.Remote == nil {
		o.Remote = &core.RemoteBuffer{}
	}
	o.Remote.RKey = rkey
	o.Remote.Offset = offset
	return rt.core.PostPut(rank, buf, tag, comp, o)
}

// PostGet reads the remote registered buffer (rkey, offset) into buf.
func (rt *Runtime) PostGet(rank int, buf []byte, rkey, offset uint64, comp Comp, opts ...Option) (Status, error) {
	o := buildOpts(opts)
	if o.Remote == nil {
		o.Remote = &core.RemoteBuffer{}
	}
	o.Remote.RKey = rkey
	o.Remote.Offset = offset
	return rt.core.PostGet(rank, buf, comp, o)
}

var _ = base.Done // keep the base import anchored for the aliases above
