package lci

import (
	"lci/internal/comp"
	"lci/internal/core"
	"lci/internal/fault"
	"lci/internal/network"
)

// This file surfaces the failure domain (DESIGN.md §9): the deterministic
// fault injector of internal/fault and the full error taxonomy a caller
// matches with errors.Is.

// FaultInjector is a deterministic, seed-driven fault injector for the
// simulated fabric: per-(src,dst) drop/duplicate/delay probabilities
// (restrictable to wire kinds with FaultKind* masks), one-shot scripted
// events (drop the Nth matching message, kill a rank, down a device), and
// a dead-rank set the runtime sweeps. Every verdict derives from the seed
// and the message's position in the (src,dst) stream, so a run is
// reproducible from the printed seed alone.
type FaultInjector = fault.Injector

// FaultRule is a per-(src,dst) probabilistic fault schedule.
type FaultRule = fault.Rule

// FaultEvent is a one-shot scripted fault.
type FaultEvent = fault.Event

// Scripted fault-event actions.
const (
	FaultDrop       = fault.ActDrop
	FaultKillRank   = fault.ActKillRank
	FaultDownDevice = fault.ActDownDevice
)

// Wire-kind values for FaultRule.KindMask / FaultEvent.Kind, combined
// with FaultKindBit. Drops on eager kinds lose the payload for good; the
// retransmit layer only recovers dropped RTS/RTR handshakes, so chaos
// schedules restrict DropP to KindRTS|KindRTR.
const (
	KindEager   = core.KindEager
	KindEagerAM = core.KindEagerAM
	KindRTS     = core.KindRTS
	KindRTSAM   = core.KindRTSAM
	KindRTR     = core.KindRTR
)

// FaultKindBit returns the KindMask bit for a wire kind.
func FaultKindBit(kind uint32) uint32 { return fault.KindBit(kind) }

// NewFaultInjector builds an injector for an n-rank world. Pass it to
// NewWorld with WithFaultInjector — the injector must be installed before
// any runtime is built, because each device reads it once, at
// construction.
func NewFaultInjector(seed uint64, n int) *FaultInjector { return fault.New(seed, n) }

// WithFaultInjector installs a fault injector on the world's fabric.
// Runtimes built from the world see its rank deaths: operations against
// dead ranks fail with ErrPeerDead instead of wedging. Duplicate
// suppression runs on every runtime, and rendezvous retransmission on
// every runtime with core.Config.RendezvousTimeoutEpochs set.
func WithFaultInjector(inj *FaultInjector) WorldOption {
	return func(w *World) { w.inj = inj }
}

// Errors re-exported from the failure domain. All are matched with
// errors.Is; completion objects carry them in Status.Err() and latch the
// first one (Counter.Err, Sync.Err, Graph.Err).
var (
	// ErrTxFull reports a full provider transmit queue; posting paths
	// normally surface it as a Retry status (or divert to the backlog
	// under WithNoRetry), so user code sees it only through diagnostics.
	// (ErrAggBusy, the aggregation-layer backpressure verdict, lives in
	// aggregate.go next to the rest of that surface.)
	ErrTxFull = network.ErrTxFull
	// ErrTimeout reports a rendezvous handshake that exhausted its
	// retransmit budget (core.Config.RendezvousTimeoutEpochs /
	// RendezvousMaxAttempts).
	ErrTimeout = core.ErrTimeout
	// ErrPeerDead reports an operation against a rank the fault domain
	// declared dead: refused posts, swept receives, undeliverable
	// aggregation batches.
	ErrPeerDead = core.ErrPeerDead
	// ErrAborted reports a completion-graph node abandoned because a
	// node it depends on failed; the graph still completes so Wait
	// returns instead of hanging.
	ErrAborted = comp.ErrAborted
)
