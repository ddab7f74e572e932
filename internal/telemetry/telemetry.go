// Package telemetry is the runtime's always-compiled observability
// subsystem: per-device cache-line-padded counters for every layer of the
// message path, lock-free log2 latency histograms, and a per-thread
// message-lifecycle trace ring — all behind one atomic flag word so that
// every disabled instrumentation site costs a single relaxed load.
//
// The paper's argument (§4–§6) is about where cycles go on the
// multithreaded critical path; this package makes that measurable outside
// the test harness without perturbing it. The design constraints, in
// order:
//
//  1. Disabled cost: one atomic load, no branches taken, no argument
//     evaluation (call sites guard with Counting/Timing/Tracing before
//     computing anything).
//  2. Enabled-counters cost: one uncontended atomic add on memory owned
//     by the bumping thread's device (counters are per-device and the
//     struct is padded at both ends, so devices never false-share) — or,
//     where the path already serializes on a lock, a plain add under it
//     (the aggregator's per-shard counts, summed by the reader each
//     aggregator registers). No layer bumps a counter every producer
//     thread of the rank shares.
//  3. Snapshot consistency: Snapshot reads every counter with an
//     individual atomic load (or under the lock that guards it). Each
//     counter value is exact at its read point, but counters are NOT
//     read at one instant — the snapshot is per-counter consistent, not
//     globally consistent. Derived sums (e.g. total posts vs. total
//     completions) can therefore be off by the handful of operations in
//     flight during the read; diffing two snapshots over a quiesced
//     interval is exact.
//
// Dependency rule: this package sits at the bottom of the runtime —
// it imports only spin — so core, packet, and agg can all hold telemetry
// objects without cycles.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lci/internal/spin"
)

// Flag bits of the atomic enable word. Counters and histograms are on by
// default — the TestTelemetryOverhead gate holds their cost under 10% of
// the Fig-4 message rate, cheap enough to leave on — and the trace ring
// is off by default (it writes four words per event).
const (
	// FlagCounters enables every per-layer counter.
	FlagCounters uint32 = 1 << iota
	// FlagHist enables the latency histograms (adds one monotonic clock
	// read per tracked post and one per completion fire).
	FlagHist
	// FlagTrace enables the message-lifecycle trace ring.
	FlagTrace
)

// Flags is the atomic enable word shared by every instrumentation site.
// The three query methods are the disabled-path cost: one relaxed load of
// a read-mostly word.
type Flags struct {
	f atomic.Uint32
}

// Counting reports whether counters are enabled.
func (f *Flags) Counting() bool { return f.f.Load()&FlagCounters != 0 }

// Timing reports whether latency histograms are enabled.
func (f *Flags) Timing() bool { return f.f.Load()&FlagHist != 0 }

// Tracing reports whether the lifecycle trace ring is enabled.
func (f *Flags) Tracing() bool { return f.f.Load()&FlagTrace != 0 }

// Enabled reports whether any of the given flag bits are set.
func (f *Flags) Enabled(bits uint32) bool { return f.f.Load()&bits != 0 }

// Enable sets the given flag bits (runtime-togglable).
func (f *Flags) Enable(bits uint32) {
	for {
		old := f.f.Load()
		if f.f.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// Disable clears the given flag bits.
func (f *Flags) Disable(bits uint32) {
	for {
		old := f.f.Load()
		if f.f.CompareAndSwap(old, old&^bits) {
			return
		}
	}
}

// epoch anchors the package's monotonic timestamps; Now is nanoseconds
// since process-local init, comparable across threads and rings.
var epoch = time.Now()

// Now returns the monotonic timestamp instrumentation sites record.
func Now() int64 { return int64(time.Since(epoch)) }

// Config selects the initial telemetry state of a runtime. The zero
// value is the default: counters and histograms on, trace off.
type Config struct {
	// Disable starts the runtime with counters and histograms off (the
	// overhead gate's baseline mode). Flags can still be re-enabled at
	// runtime through Telemetry.Enable.
	Disable bool
	// Trace starts the runtime with the message-lifecycle trace ring
	// enabled.
	Trace bool
	// TraceDepth is the per-ring event capacity, rounded up to a power of
	// two (default 4096). Ring storage materializes lazily on first use,
	// so disabled traces cost no memory.
	TraceDepth int
}

// DeviceCounters is one pool device's counter block. The struct is padded
// at both ends so no two devices' counters share a cache line; within a
// device, counters are bumped mostly by the threads driving that device
// (in the paper's dedicated-resource mode, exactly one thread).
//
// Every field is cumulative since runtime construction and is read with
// an individual atomic load by Snap.
type DeviceCounters struct {
	_ spin.Pad

	// Posting path, by protocol chosen (§4.2.4 / §5.1).
	PostInline     atomic.Int64 // eager posts completing immediately (<= InjectSize)
	PostEager      atomic.Int64 // eager posts carrying a completion window
	PostRendezvous atomic.Int64 // RTS announcements posted (sends and AMs)
	PostPut        atomic.Int64 // RMA puts posted
	PostGet        atomic.Int64 // RMA gets posted

	// Transient-failure handling (§4.2.5 / §5.1.5).
	RetryPacketPool atomic.Int64 // posts bounced: packet pool empty
	RetryTxFull     atomic.Int64 // posts bounced: provider TX queue full
	RetryLockBusy   atomic.Int64 // posts bounced: provider try-lock busy
	BacklogParks    atomic.Int64 // operations parked on the backlog queue
	BacklogDrains   atomic.Int64 // parked operations successfully drained

	// Matching engine outcomes observed by this device (§5.1.1).
	MatchHits       atomic.Int64 // arrivals that found a posted receive
	MatchUnexpected atomic.Int64 // arrivals parked as unexpected messages
	RecvMatched     atomic.Int64 // posted receives that matched immediately
	RecvPosted      atomic.Int64 // posted receives parked awaiting a send

	// Active-message deliveries fired by this device's poller (§4.2.6).
	AMFires   atomic.Int64 // handler-table invocations (eager + rendezvous + put-signal)
	AMSignals atomic.Int64 // completion-object AM deliveries
	AMDrops   atomic.Int64 // deliveries dropped on a stale/unknown handle

	// Rendezvous control traffic handled by this device (§5.1.4).
	RTSRecv  atomic.Int64 // RTS announcements received (send + AM)
	RTRSent  atomic.Int64 // RTR invitations sent back
	RdvWrite atomic.Int64 // rendezvous payload writes posted on RTR

	// Progress engine (§4.2.7). Only rounds that found completions count;
	// the empty-poll fast path touches nothing.
	ProgressRounds atomic.Int64 // poll rounds that processed completions
	Completions    atomic.Int64 // network completions processed

	// CrossOps counts operations that paid the modeled cross-NUMA access
	// penalty on this device (posting or polling from a remote domain).
	CrossOps atomic.Int64

	// Failure-domain hardening: retransmit machinery and fault surfacing
	// (zero on a healthy fabric with timeouts disabled).
	Retransmits    atomic.Int64 // RTS/RTR control messages re-sent (timeout or dup-RTS)
	RdvTimeouts    atomic.Int64 // rendezvous ops error-completed with ErrTimeout
	DupSuppressed  atomic.Int64 // duplicate RTS/RTR/write-imm arrivals suppressed
	PeerDeadErrors atomic.Int64 // operations error-completed with ErrPeerDead
	DeadSweeps     atomic.Int64 // parked receives swept on peer death

	_ spin.Pad
}

// NoteRetry classifies a bounced post into its retry counter.
// reason follows base.RetryReason's encoding but is passed as the raw
// error class by core (telemetry cannot import base).
func (c *DeviceCounters) NoteRetry(packetPool, txFull bool) {
	switch {
	case packetPool:
		c.RetryPacketPool.Add(1)
	case txFull:
		c.RetryTxFull.Add(1)
	default:
		c.RetryLockBusy.Add(1)
	}
}

// DeviceCountersSnap is DeviceCounters with every field loaded.
type DeviceCountersSnap struct {
	PostInline      int64 `json:"post_inline"`
	PostEager       int64 `json:"post_eager"`
	PostRendezvous  int64 `json:"post_rendezvous"`
	PostPut         int64 `json:"post_put"`
	PostGet         int64 `json:"post_get"`
	RetryPacketPool int64 `json:"retry_packet_pool"`
	RetryTxFull     int64 `json:"retry_tx_full"`
	RetryLockBusy   int64 `json:"retry_lock_busy"`
	BacklogParks    int64 `json:"backlog_parks"`
	BacklogDrains   int64 `json:"backlog_drains"`
	MatchHits       int64 `json:"match_hits"`
	MatchUnexpected int64 `json:"match_unexpected"`
	RecvMatched     int64 `json:"recv_matched"`
	RecvPosted      int64 `json:"recv_posted"`
	AMFires         int64 `json:"am_fires"`
	AMSignals       int64 `json:"am_signals"`
	AMDrops         int64 `json:"am_drops"`
	RTSRecv         int64 `json:"rts_recv"`
	RTRSent         int64 `json:"rtr_sent"`
	RdvWrite        int64 `json:"rdv_write"`
	ProgressRounds  int64 `json:"progress_rounds"`
	Completions     int64 `json:"completions"`
	CrossOps        int64 `json:"cross_ops"`
	Retransmits     int64 `json:"retransmits"`
	RdvTimeouts     int64 `json:"rdv_timeouts"`
	DupSuppressed   int64 `json:"dup_suppressed"`
	PeerDeadErrors  int64 `json:"peer_dead_errors"`
	DeadSweeps      int64 `json:"dead_sweeps"`
}

// Snap loads every counter individually (per-counter consistent; see the
// package comment for what that does and does not promise).
func (c *DeviceCounters) Snap() DeviceCountersSnap {
	return DeviceCountersSnap{
		PostInline:      c.PostInline.Load(),
		PostEager:       c.PostEager.Load(),
		PostRendezvous:  c.PostRendezvous.Load(),
		PostPut:         c.PostPut.Load(),
		PostGet:         c.PostGet.Load(),
		RetryPacketPool: c.RetryPacketPool.Load(),
		RetryTxFull:     c.RetryTxFull.Load(),
		RetryLockBusy:   c.RetryLockBusy.Load(),
		BacklogParks:    c.BacklogParks.Load(),
		BacklogDrains:   c.BacklogDrains.Load(),
		MatchHits:       c.MatchHits.Load(),
		MatchUnexpected: c.MatchUnexpected.Load(),
		RecvMatched:     c.RecvMatched.Load(),
		RecvPosted:      c.RecvPosted.Load(),
		AMFires:         c.AMFires.Load(),
		AMSignals:       c.AMSignals.Load(),
		AMDrops:         c.AMDrops.Load(),
		RTSRecv:         c.RTSRecv.Load(),
		RTRSent:         c.RTRSent.Load(),
		RdvWrite:        c.RdvWrite.Load(),
		ProgressRounds:  c.ProgressRounds.Load(),
		Completions:     c.Completions.Load(),
		CrossOps:        c.CrossOps.Load(),
		Retransmits:     c.Retransmits.Load(),
		RdvTimeouts:     c.RdvTimeouts.Load(),
		DupSuppressed:   c.DupSuppressed.Load(),
		PeerDeadErrors:  c.PeerDeadErrors.Load(),
		DeadSweeps:      c.DeadSweeps.Load(),
	}
}

func (a DeviceCountersSnap) sub(b DeviceCountersSnap) DeviceCountersSnap {
	return DeviceCountersSnap{
		PostInline:      a.PostInline - b.PostInline,
		PostEager:       a.PostEager - b.PostEager,
		PostRendezvous:  a.PostRendezvous - b.PostRendezvous,
		PostPut:         a.PostPut - b.PostPut,
		PostGet:         a.PostGet - b.PostGet,
		RetryPacketPool: a.RetryPacketPool - b.RetryPacketPool,
		RetryTxFull:     a.RetryTxFull - b.RetryTxFull,
		RetryLockBusy:   a.RetryLockBusy - b.RetryLockBusy,
		BacklogParks:    a.BacklogParks - b.BacklogParks,
		BacklogDrains:   a.BacklogDrains - b.BacklogDrains,
		MatchHits:       a.MatchHits - b.MatchHits,
		MatchUnexpected: a.MatchUnexpected - b.MatchUnexpected,
		RecvMatched:     a.RecvMatched - b.RecvMatched,
		RecvPosted:      a.RecvPosted - b.RecvPosted,
		AMFires:         a.AMFires - b.AMFires,
		AMSignals:       a.AMSignals - b.AMSignals,
		AMDrops:         a.AMDrops - b.AMDrops,
		RTSRecv:         a.RTSRecv - b.RTSRecv,
		RTRSent:         a.RTRSent - b.RTRSent,
		RdvWrite:        a.RdvWrite - b.RdvWrite,
		ProgressRounds:  a.ProgressRounds - b.ProgressRounds,
		Completions:     a.Completions - b.Completions,
		CrossOps:        a.CrossOps - b.CrossOps,
		Retransmits:     a.Retransmits - b.Retransmits,
		RdvTimeouts:     a.RdvTimeouts - b.RdvTimeouts,
		DupSuppressed:   a.DupSuppressed - b.DupSuppressed,
		PeerDeadErrors:  a.PeerDeadErrors - b.PeerDeadErrors,
		DeadSweeps:      a.DeadSweeps - b.DeadSweeps,
	}
}

func (a DeviceCountersSnap) add(b DeviceCountersSnap) DeviceCountersSnap {
	return DeviceCountersSnap{
		PostInline:      a.PostInline + b.PostInline,
		PostEager:       a.PostEager + b.PostEager,
		PostRendezvous:  a.PostRendezvous + b.PostRendezvous,
		PostPut:         a.PostPut + b.PostPut,
		PostGet:         a.PostGet + b.PostGet,
		RetryPacketPool: a.RetryPacketPool + b.RetryPacketPool,
		RetryTxFull:     a.RetryTxFull + b.RetryTxFull,
		RetryLockBusy:   a.RetryLockBusy + b.RetryLockBusy,
		BacklogParks:    a.BacklogParks + b.BacklogParks,
		BacklogDrains:   a.BacklogDrains + b.BacklogDrains,
		MatchHits:       a.MatchHits + b.MatchHits,
		MatchUnexpected: a.MatchUnexpected + b.MatchUnexpected,
		RecvMatched:     a.RecvMatched + b.RecvMatched,
		RecvPosted:      a.RecvPosted + b.RecvPosted,
		AMFires:         a.AMFires + b.AMFires,
		AMSignals:       a.AMSignals + b.AMSignals,
		AMDrops:         a.AMDrops + b.AMDrops,
		RTSRecv:         a.RTSRecv + b.RTSRecv,
		RTRSent:         a.RTRSent + b.RTRSent,
		RdvWrite:        a.RdvWrite + b.RdvWrite,
		ProgressRounds:  a.ProgressRounds + b.ProgressRounds,
		Completions:     a.Completions + b.Completions,
		CrossOps:        a.CrossOps + b.CrossOps,
		Retransmits:     a.Retransmits + b.Retransmits,
		RdvTimeouts:     a.RdvTimeouts + b.RdvTimeouts,
		DupSuppressed:   a.DupSuppressed + b.DupSuppressed,
		PeerDeadErrors:  a.PeerDeadErrors + b.PeerDeadErrors,
		DeadSweeps:      a.DeadSweeps + b.DeadSweeps,
	}
}

// AggSnap is the aggregation layer's counts, summed over every registered
// aggregator. The counts live on the aggregators' (destination, device)
// shards, bumped under the shard lock the path already holds, and each
// aggregator's reader sums them under the same locks (see RegisterAgg).
type AggSnap struct {
	Appends       int64 `json:"appends"`        // records coalesced into buffers
	FlushSize     int64 `json:"flush_size"`     // buffers sealed because they filled
	FlushAge      int64 `json:"flush_age"`      // buffers sealed by the poll-epoch age trigger
	FlushExplicit int64 `json:"flush_explicit"` // buffers sealed by FlushDest/Flush
	Busy          int64 `json:"busy"`           // appends refused with ErrBusy (backpressure)
	Parks         int64 `json:"parks"`          // sealed buffers parked on a pending list (network said no)
	QueuedBytes   int64 `json:"queued_bytes"`   // gauge: current, not cumulative
}

// Add returns the field-wise sum a + b (the gauge sums too: two
// aggregators report their combined queue).
func (a AggSnap) Add(b AggSnap) AggSnap {
	return AggSnap{
		Appends:       a.Appends + b.Appends,
		FlushSize:     a.FlushSize + b.FlushSize,
		FlushAge:      a.FlushAge + b.FlushAge,
		FlushExplicit: a.FlushExplicit + b.FlushExplicit,
		Busy:          a.Busy + b.Busy,
		Parks:         a.Parks + b.Parks,
		QueuedBytes:   a.QueuedBytes + b.QueuedBytes,
	}
}

func (a AggSnap) sub(b AggSnap) AggSnap {
	return AggSnap{
		Appends:       a.Appends - b.Appends,
		FlushSize:     a.FlushSize - b.FlushSize,
		FlushAge:      a.FlushAge - b.FlushAge,
		FlushExplicit: a.FlushExplicit - b.FlushExplicit,
		Busy:          a.Busy - b.Busy,
		Parks:         a.Parks - b.Parks,
		QueuedBytes:   a.QueuedBytes, // gauge: keep the newer reading
	}
}

// PoolSnap is the packet pool's counter snapshot, summed over the pool's
// per-shard counters (each shard's counters are owner-mostly, so the hot
// path never bumps a shared line; the summation cost lands here, on the
// reader).
type PoolSnap struct {
	Gets      int64 `json:"gets"`      // successful packet acquisitions
	Bounces   int64 `json:"bounces"`   // gets served by the one-packet bounce slot
	Steals    int64 `json:"steals"`    // gets served by stealing from a victim shard
	Exhausted int64 `json:"exhausted"` // gets that found no packet anywhere
	Allocated int64 `json:"allocated"` // gauge: packets ever created
	Available int64 `json:"available"` // gauge: packets currently idle in deques
}

func (a PoolSnap) sub(b PoolSnap) PoolSnap {
	return PoolSnap{
		Gets:      a.Gets - b.Gets,
		Bounces:   a.Bounces - b.Bounces,
		Steals:    a.Steals - b.Steals,
		Exhausted: a.Exhausted - b.Exhausted,
		Allocated: a.Allocated, // gauges: keep the newer reading
		Available: a.Available,
	}
}

// NetSnap is one device's fabric-endpoint view (filled by the device's
// registered probe from fabric.Stats; telemetry does not import the
// fabric).
type NetSnap struct {
	Msgs     int64 `json:"msgs"`
	Bytes    int64 `json:"bytes"`
	RNR      int64 `json:"rnr"`
	Rejects  int64 `json:"rejects"`
	CrossOps int64 `json:"cross_ops"`
}

func (a NetSnap) sub(b NetSnap) NetSnap {
	return NetSnap{
		Msgs:     a.Msgs - b.Msgs,
		Bytes:    a.Bytes - b.Bytes,
		RNR:      a.RNR - b.RNR,
		Rejects:  a.Rejects - b.Rejects,
		CrossOps: a.CrossOps - b.CrossOps,
	}
}

// DeviceGauges is the point-in-time state a device's probe reports
// alongside its counters.
type DeviceGauges struct {
	Net            NetSnap `json:"net"`
	ConnectedPeers int     `json:"connected_peers"` // lazily established provider endpoints
	BacklogLen     int     `json:"backlog_len"`
}

// DeviceProbe supplies a device's gauges at snapshot time.
type DeviceProbe func() DeviceGauges

// DeviceSnap is one device's slice of a Snapshot.
type DeviceSnap struct {
	Index    int                `json:"index"`
	Counters DeviceCountersSnap `json:"counters"`
	Gauges   DeviceGauges       `json:"gauges"`
}

// Snapshot is the structured, diffable state of every layer at (roughly)
// one point in time. See the package comment: each number is exact, the
// set is not globally instantaneous. It marshals directly to JSON, so an
// expvar.Func(func() any { return tel.Snapshot() }) publishes it as-is.
type Snapshot struct {
	Devices     []DeviceSnap `json:"devices"`
	Pool        PoolSnap     `json:"pool"`
	Agg         AggSnap      `json:"agg"`
	PostLatency HistSnap     `json:"post_latency_ns"`
	AMRoundTrip HistSnap     `json:"am_roundtrip_ns"`
}

// Sub returns the per-interval difference s - prev for all cumulative
// counters and histograms; gauges keep s's (newer) readings. Devices are
// matched by index; devices present only in s pass through unchanged.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	out.Devices = make([]DeviceSnap, len(s.Devices))
	byIdx := make(map[int]DeviceSnap, len(prev.Devices))
	for _, d := range prev.Devices {
		byIdx[d.Index] = d
	}
	for i, d := range s.Devices {
		if p, ok := byIdx[d.Index]; ok {
			d.Counters = d.Counters.sub(p.Counters)
			d.Gauges.Net = d.Gauges.Net.sub(p.Gauges.Net)
		}
		out.Devices[i] = d
	}
	out.Pool = s.Pool.sub(prev.Pool)
	out.Agg = s.Agg.sub(prev.Agg)
	out.PostLatency = s.PostLatency.Sub(prev.PostLatency)
	out.AMRoundTrip = s.AMRoundTrip.Sub(prev.AMRoundTrip)
	return out
}

// Total sums the per-device counters (convenience for gates and dumps).
func (s Snapshot) Total() DeviceCountersSnap {
	var t DeviceCountersSnap
	for _, d := range s.Devices {
		t = t.add(d.Counters)
	}
	return t
}

// Empty reports whether the snapshot recorded no activity at all.
func (s Snapshot) Empty() bool {
	t := s.Total()
	return t == DeviceCountersSnap{} && s.Pool.Gets == 0 &&
		s.Agg.Appends == 0 && s.PostLatency.Count == 0 && s.AMRoundTrip.Count == 0
}

// Telemetry is a runtime's observability root: the enable flags, the
// registered per-device counter blocks and probes, the pool and
// aggregator readers, the latency histograms, and the trace ring set.
type Telemetry struct {
	Flags

	hPost Hist // post -> completion-fire latency
	hAM   Hist // AM round-trip latency (rendezvous-AM completion cycle)

	trace *Trace

	mu   sync.Mutex
	devs []*devEntry
	pool func() PoolSnap
	aggs []func() AggSnap
}

type devEntry struct {
	index    int
	counters *DeviceCounters
	probe    DeviceProbe
}

// New builds a Telemetry root with cfg's initial flags.
func New(cfg Config) *Telemetry {
	t := &Telemetry{trace: newTrace(cfg.TraceDepth)}
	if !cfg.Disable {
		t.Enable(FlagCounters | FlagHist)
	}
	if cfg.Trace {
		t.Enable(FlagTrace)
	}
	return t
}

// RegisterDevice attaches a device's counter block and gauge probe.
// Control path (device allocation); called once per device.
func (t *Telemetry) RegisterDevice(index int, c *DeviceCounters, probe DeviceProbe) {
	t.mu.Lock()
	t.devs = append(t.devs, &devEntry{index: index, counters: c, probe: probe})
	t.mu.Unlock()
}

// RegisterPool attaches the packet pool's summed-counter reader.
func (t *Telemetry) RegisterPool(fn func() PoolSnap) {
	t.mu.Lock()
	t.pool = fn
	t.mu.Unlock()
}

// RegisterAgg attaches an aggregator's reader, which sums its shards'
// counts (and queued bytes) at snapshot time; Snapshot.Agg is the sum
// over every registered aggregator.
func (t *Telemetry) RegisterAgg(fn func() AggSnap) {
	t.mu.Lock()
	t.aggs = append(t.aggs, fn)
	t.mu.Unlock()
}

// PostLatency returns the post→completion-fire histogram.
func (t *Telemetry) PostLatency() *Hist { return &t.hPost }

// AMRoundTrip returns the AM round-trip histogram.
func (t *Telemetry) AMRoundTrip() *Hist { return &t.hAM }

// Trace returns the lifecycle trace-ring set.
func (t *Telemetry) Trace() *Trace { return t.trace }

// Snapshot reads every layer (per-counter atomic loads; see the package
// comment for the consistency contract) into one structured value.
func (t *Telemetry) Snapshot() Snapshot {
	t.mu.Lock()
	devs := make([]*devEntry, len(t.devs))
	copy(devs, t.devs)
	pool := t.pool
	aggs := t.aggs
	t.mu.Unlock()

	s := Snapshot{
		Devices:     make([]DeviceSnap, len(devs)),
		PostLatency: t.hPost.Snap(),
		AMRoundTrip: t.hAM.Snap(),
	}
	for i, d := range devs {
		ds := DeviceSnap{Index: d.index, Counters: d.counters.Snap()}
		if d.probe != nil {
			ds.Gauges = d.probe()
		}
		s.Devices[i] = ds
	}
	if pool != nil {
		s.Pool = pool()
	}
	for _, fn := range aggs {
		s.Agg = s.Agg.Add(fn())
	}
	return s
}

// Expvar adapts the telemetry root to expvar.Publish:
//
//	expvar.Publish("lci", expvar.Func(tel.Expvar()))
func (t *Telemetry) Expvar() func() any {
	return func() any { return t.Snapshot() }
}

// WriteText renders the snapshot as the human-readable per-layer dump
// `lci-bench -stats` prints.
func (s Snapshot) WriteText(w io.Writer) {
	tot := s.Total()
	fmt.Fprintf(w, "== posts ==\n")
	fmt.Fprintf(w, "  inline=%d eager=%d rendezvous=%d put=%d get=%d\n",
		tot.PostInline, tot.PostEager, tot.PostRendezvous, tot.PostPut, tot.PostGet)
	fmt.Fprintf(w, "  retries: packet-pool=%d tx-full=%d lock-busy=%d  backlog: parks=%d drains=%d\n",
		tot.RetryPacketPool, tot.RetryTxFull, tot.RetryLockBusy, tot.BacklogParks, tot.BacklogDrains)
	fmt.Fprintf(w, "== matching ==\n")
	fmt.Fprintf(w, "  arrivals: hit=%d unexpected=%d  receives: matched=%d posted=%d\n",
		tot.MatchHits, tot.MatchUnexpected, tot.RecvMatched, tot.RecvPosted)
	fmt.Fprintf(w, "== active messages ==\n")
	fmt.Fprintf(w, "  handler-fires=%d comp-signals=%d stale-drops=%d\n",
		tot.AMFires, tot.AMSignals, tot.AMDrops)
	fmt.Fprintf(w, "== rendezvous ==\n")
	fmt.Fprintf(w, "  rts-recv=%d rtr-sent=%d writes=%d\n", tot.RTSRecv, tot.RTRSent, tot.RdvWrite)
	if tot.Retransmits != 0 || tot.RdvTimeouts != 0 || tot.DupSuppressed != 0 ||
		tot.PeerDeadErrors != 0 || tot.DeadSweeps != 0 {
		fmt.Fprintf(w, "== faults ==\n")
		fmt.Fprintf(w, "  retransmits=%d timeouts=%d dup-suppressed=%d peer-dead=%d dead-sweeps=%d\n",
			tot.Retransmits, tot.RdvTimeouts, tot.DupSuppressed, tot.PeerDeadErrors, tot.DeadSweeps)
	}
	fmt.Fprintf(w, "== progress ==\n")
	fmt.Fprintf(w, "  rounds=%d completions=%d cross-numa-ops=%d\n",
		tot.ProgressRounds, tot.Completions, tot.CrossOps)
	fmt.Fprintf(w, "== packet pool ==\n")
	fmt.Fprintf(w, "  gets=%d bounces=%d steals=%d exhausted=%d allocated=%d available=%d\n",
		s.Pool.Gets, s.Pool.Bounces, s.Pool.Steals, s.Pool.Exhausted, s.Pool.Allocated, s.Pool.Available)
	if s.Agg != (AggSnap{}) {
		fmt.Fprintf(w, "== aggregation ==\n")
		fmt.Fprintf(w, "  appends=%d flushes: size=%d age=%d explicit=%d  busy=%d parks=%d queued-bytes=%d\n",
			s.Agg.Appends, s.Agg.FlushSize, s.Agg.FlushAge, s.Agg.FlushExplicit,
			s.Agg.Busy, s.Agg.Parks, s.Agg.QueuedBytes)
	}
	fmt.Fprintf(w, "== devices ==\n")
	for _, d := range s.Devices {
		fmt.Fprintf(w, "  dev%-2d peers=%-3d backlog=%-3d net: msgs=%d bytes=%d rnr=%d cross=%d\n",
			d.Index, d.Gauges.ConnectedPeers, d.Gauges.BacklogLen,
			d.Gauges.Net.Msgs, d.Gauges.Net.Bytes, d.Gauges.Net.RNR, d.Gauges.Net.CrossOps)
	}
	if s.PostLatency.Count > 0 {
		fmt.Fprintf(w, "== post -> completion latency ==\n")
		s.PostLatency.writeText(w)
	}
	if s.AMRoundTrip.Count > 0 {
		fmt.Fprintf(w, "== AM round-trip latency ==\n")
		s.AMRoundTrip.writeText(w)
	}
}

// String renders the snapshot via WriteText.
func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}
