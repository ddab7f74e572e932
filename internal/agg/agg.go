// Package agg is the per-destination message-aggregation layer sitting
// directly above core: the mechanism that makes fine-grained AMT-style
// traffic scale. Producers append small records to per-(destination,
// device) coalescing buffers sized to the eager threshold; a full buffer
// travels as ONE eager active message (one packet, one injection-pacer
// slot, one TX credit) and the receive side scatters it back into
// per-record handler completions. A workload that would otherwise pay the
// per-message injection cost a few hundred times per buffer pays it once.
//
// Buffer lifecycle. Each (destination, device) shard owns a fixed
// population of BufsPerDest buffers cycling through four states:
//
//	free ──Append──▶ current ──seal──▶ posted ──TxDone──▶ free
//	                            └──ErrTxFull──▶ pending ──Poll──▶ posted
//
// A buffer seals when the next record does not fit (size flush), when its
// first record has aged FlushAge poll epochs (age flush, driven by the
// cheap per-column epoch counter Poll advances — no per-buffer goroutines
// or timers), or on an explicit FlushDest/Flush. Sealed buffers are posted
// as one PostAM; a post the network refuses (network.ErrTxFull surfacing
// as a Retry status) parks the buffer on the shard's pending list, which
// Poll and Flush retry. The buffer itself is the post's completion
// object: the poller's TxDone completion signals it and it re-enters the
// shard's freelist, so recycling rides the existing completion path.
//
// Backpressure is first-class and bounded by construction: a shard never
// holds more than BufsPerDest buffers of queued-but-unflushed bytes.
// When the current buffer fills and no free buffer remains — every
// buffer in flight or refused by a full transmit queue — Append returns
// ErrBusy instead of queueing unboundedly; AppendWait turns that into
// polling until the network drains.
//
// NUMA homing. Every shard's buffers are homed on a NUMA domain: the
// bound device's domain under HomeDevice (the default — device-local
// appends and flushes), or the farthest domain from the device under
// HomeFarthest (the measurement adversary). The Go runtime cannot place
// physical pages, so homing is modeled the same way the provider sims
// model cross-domain endpoint access: a producer appending from a
// different domain than the buffer's home charges spin.Delay for every
// cache line the record touches, scaled by the topology hop count
// (DESIGN.md §3). Flush-path costs are amortized away by aggregation
// itself; the append path is where misplaced buffers hurt, so that is
// where the model charges.
//
// Accounting. The telemetry counts (appends, busy refusals, seals by
// reason, parks) and the dropped-record tally live on each shard as plain
// integers, bumped under the shard lock the path already holds; the
// reader the aggregator registers with telemetry sums them under the same
// locks. Append and Poll therefore write no memory shared across columns
// beyond the shards and the column they act on.
package agg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"lci/internal/base"
	"lci/internal/core"
	"lci/internal/packet"
	"lci/internal/spin"
	"lci/internal/telemetry"
	"lci/internal/topo"
)

// ErrBusy reports that every aggregation buffer for the destination is in
// flight (or refused by a full transmit queue): the producer must poll —
// or back off — instead of queueing unboundedly. AppendWait does exactly
// that.
var ErrBusy = errors.New("agg: all aggregation buffers for the destination are in flight")

// ErrRecordTooLarge reports a record that cannot fit an aggregation
// buffer even alone.
var ErrRecordTooLarge = errors.New("agg: record exceeds the aggregation buffer capacity")

// frameOverhead is the per-record wire overhead: a little-endian uint16
// length prefix.
const frameOverhead = 2

// FrameOverhead is the per-record wire overhead of AppendFrame's framing,
// exported for transports that coalesce with the same framing over
// non-LCI substrates.
const FrameOverhead = frameOverhead

// Homing selects the NUMA domain aggregation buffers are homed on.
type Homing int

const (
	// HomeDevice homes each shard's buffers on its bound device's domain
	// (the default): producers pinned to local devices append and flush
	// without ever crossing the socket interconnect.
	HomeDevice Homing = iota
	// HomeFarthest homes each shard's buffers on the domain farthest from
	// its device — the measurement adversary the homing-quality gate
	// compares HomeDevice against.
	HomeFarthest
)

// Sink consumes one delivered record. It runs in poller context (inside
// device progress of whichever device the batch arrived on) under the
// same rules as a remote handler: it must not block, must not spin on
// progress, and the record slice is only valid for the duration of the
// call — copy to retain.
type Sink func(src int, record []byte)

// Config parameterizes an Aggregator. The zero value of every field
// selects the default.
type Config struct {
	// BufBytes is the coalescing-buffer capacity (default, and maximum,
	// the runtime's eager threshold MaxEager: one buffer = one eager
	// packet).
	BufBytes int
	// BufsPerDest is the buffer population per (destination, device)
	// shard (default 4). It bounds queued-but-unflushed bytes per shard
	// at BufsPerDest*BufBytes.
	BufsPerDest int
	// FlushAge is the age flush threshold in poll epochs: a non-empty
	// buffer whose first record is FlushAge epochs old is sealed by the
	// next Poll (default 64). Each device column keeps its own epoch,
	// advanced once per Poll through that column, so the unit is "polls
	// of this buffer's column" — the column Poll acts on, and a cheap
	// monotone proxy for time that costs the hot path nothing. On a rank
	// whose D columns are polled about equally, a straggler record thus
	// waits about D times as many rank-wide Polls (and wall-clock time)
	// before its age seal as under one rank-wide epoch; no benchmark
	// workload measures age-flush latency.
	FlushAge int
	// Homing selects buffer homing (default HomeDevice).
	Homing Homing
	// CrossMemNs is the modeled cost, per cache line and topology hop, of
	// appending to a buffer homed on a remote NUMA domain (default 150;
	// negative disables the penalty model). It only applies when both the
	// producer's and the buffer's home domain are known and differ.
	CrossMemNs int
	// OnError is invoked when a sealed buffer can never be delivered (the
	// destination rank died, the runtime closed): once per dropped batch,
	// with the destination, the number of coalesced records lost, and the
	// typed error. The buffer recycles after the callback so the shard
	// keeps its population and Flush still quiesces. nil = count only
	// (DroppedRecords).
	OnError func(dest, records int, err error)
}

func (c Config) withDefaults(rt *core.Runtime) Config {
	if c.BufBytes <= 0 || c.BufBytes > rt.MaxEager() {
		c.BufBytes = rt.MaxEager()
	}
	if c.BufBytes < frameOverhead+1 {
		c.BufBytes = frameOverhead + 1
	}
	if c.BufsPerDest <= 0 {
		c.BufsPerDest = 4
	}
	if c.FlushAge <= 0 {
		c.FlushAge = 64
	}
	if c.CrossMemNs == 0 {
		c.CrossMemNs = 150
	} else if c.CrossMemNs < 0 {
		c.CrossMemNs = 0
	}
	return c
}

// buffer is one coalescing buffer. It doubles as the completion object of
// its own post: the poller's TxDone completion signals it back onto the
// freelist, so recycling needs no side channel.
type buffer struct {
	sh   *shard
	data []byte // len = fill, cap = BufBytes
	recs int
}

// Signal recycles the buffer after its batch's transmit completed — or
// error-completes the batch when the completion carries a failure (the
// destination died while the post was parked on a device backlog).
// Runs in poller context; the shard spinlock is append-only-short.
func (b *buffer) Signal(st base.Status) {
	if st.Failed() {
		b.sh.fail(b, st.Err())
		return
	}
	b.sh.recycle(b)
}

// shard is the aggregation state for one (destination, device) pair. The
// lock covers only pointer/slice shuffling and the record copy; posts and
// penalties happen outside it.
type shard struct {
	_     spin.Pad
	mu    spin.Lock
	cur   *buffer   // being filled, nil when none
	free  []*buffer // recycled, ready to fill
	pend  []*buffer // sealed but refused by the network; Poll retries
	birth uint64    // column epoch when cur received its first record
	ag    *Aggregator
	dev   *core.Device
	dest  int
	// n counts this shard's appends, busy refusals, seals by reason and
	// parks (QueuedBytes unused; the reader computes it), and dropped the
	// records lost to undeliverable batches. Both are guarded by mu.
	n       telemetry.AggSnap
	dropped int64
	_       spin.Pad
}

// column is one device's row of shards (one per contacted destination)
// plus the domain its buffers are homed on. Shards — and their
// BufsPerDest×BufBytes of buffer memory — materialize on the first append
// toward a destination, so a rank that talks to 8 of 256 peers allocates
// 8 shards per column, not 256; only the pointer-slot index is O(ranks).
// The column's age epoch is its own, padded away from other columns and
// from the column's read-mostly fields, so a Poll writes only a line no
// Append reads: producers sharing a column do not lose the shards line
// to each other's polls.
type column struct {
	_      spin.Pad
	dev    *core.Device
	home   int // NUMA domain the column's buffers are homed on
	shards []atomic.Pointer[shard]
	_      spin.Pad
	epoch  atomic.Uint64 // advanced once per Poll through this column
	_      spin.Pad
}

// shard returns dest's shard, allocating it (and its buffers) on first
// use; the first appender wins the CAS race, losers adopt its shard.
func (col *column) shard(ag *Aggregator, dest int) *shard {
	if sh := col.shards[dest].Load(); sh != nil {
		return sh
	}
	sh := &shard{ag: ag, dev: col.dev, dest: dest}
	sh.free = make([]*buffer, ag.cfg.BufsPerDest)
	for k := range sh.free {
		sh.free[k] = &buffer{sh: sh, data: make([]byte, 0, ag.cfg.BufBytes)}
	}
	if col.shards[dest].CompareAndSwap(nil, sh) {
		return sh
	}
	return col.shards[dest].Load()
}

// each visits every materialized shard of the column (progress and flush
// paths iterate contacted destinations only, never all NumRanks slots'
// worth of shard state).
func (col *column) each(fn func(sh *shard)) {
	for i := range col.shards {
		if sh := col.shards[i].Load(); sh != nil {
			fn(sh)
		}
	}
}

// Aggregator is a per-rank aggregation layer over the runtime's device
// pool. Construct it with New at the same point on every rank: delivery
// rides a remote handler, and handler handles only agree across ranks
// when registration order is symmetric.
type Aggregator struct {
	rt    *core.Runtime
	cfg   Config
	sink  Sink
	rcomp base.RComp
	cols  []*column
	tel   *telemetry.Telemetry
}

// DroppedRecords reports how many coalesced records were dropped because
// their batch became undeliverable (destination died, runtime closed);
// see Config.OnError.
func (ag *Aggregator) DroppedRecords() int64 {
	_, dropped := ag.sum()
	return dropped
}

// New builds an aggregator over rt's current device pool (one shard
// column per pool device; shards materialize per destination on first
// append) and registers its scatter handler. All ranks must call New at
// the same point in their registration sequence with the same shape.
func New(rt *core.Runtime, sink Sink, cfg Config) *Aggregator {
	if sink == nil {
		panic("agg: New requires a sink")
	}
	cfg = cfg.withDefaults(rt)
	ag := &Aggregator{rt: rt, cfg: cfg, sink: sink, tel: rt.Telemetry()}
	ag.tel.RegisterAgg(func() telemetry.AggSnap {
		s, _ := ag.sum()
		return s
	})
	ag.rcomp = rt.RegisterHandler(ag.scatter)
	t := rt.Config().Topology
	ag.cols = make([]*column, rt.NumDevices())
	for i := range ag.cols {
		dev := rt.Device(i)
		home := dev.Domain()
		if cfg.Homing == HomeFarthest && home >= 0 {
			home = t.Farthest(home)
		}
		ag.cols[i] = &column{dev: dev, home: home, shards: make([]atomic.Pointer[shard], rt.NumRanks())}
	}
	return ag
}

// Config returns the effective configuration.
func (ag *Aggregator) Config() Config { return ag.cfg }

// Thread is a producer's per-goroutine handle: the device column it
// appends into, its packet worker, and the precomputed cross-domain
// append penalty. Like an Affinity it belongs to one goroutine.
type Thread struct {
	ag  *Aggregator
	col *column
	w   *packet.Worker
	// penPerLine is the modeled cost of appending one cache line into
	// this column's home domain from the owning thread's domain (0 when
	// local, unknown, or the penalty model is off).
	penPerLine int
}

// Thread builds the handle for a goroutine pinned with RegisterThread:
// appends go to the affinity's device column with the affinity's worker,
// and the thread's resolved domain prices the homing penalty.
func (ag *Aggregator) Thread(aff *core.Affinity) *Thread {
	return ag.thread(aff.Device().Index(), aff.Worker(), aff.Domain())
}

// ThreadOn builds a handle bound to pool device devIdx with a freshly
// registered, domain-unbound worker (no homing penalty is ever charged —
// an unknown producer domain never pays, matching the topology model's
// "no information, no penalty" rule).
func (ag *Aggregator) ThreadOn(devIdx int) *Thread {
	return ag.thread(devIdx, ag.rt.RegisterWorker(), topo.UnknownDomain)
}

func (ag *Aggregator) thread(devIdx int, w *packet.Worker, dom int) *Thread {
	if devIdx < 0 || devIdx >= len(ag.cols) {
		panic(fmt.Sprintf("agg: device %d outside the aggregator's %d-column pool", devIdx, len(ag.cols)))
	}
	col := ag.cols[devIdx]
	t := &Thread{ag: ag, col: col, w: w}
	if dom >= 0 && col.home >= 0 && dom != col.home {
		t.penPerLine = ag.rt.Config().Topology.Hops(dom, col.home) * ag.cfg.CrossMemNs
	}
	return t
}

// Append coalesces one record for dest into the thread's column,
// returning ErrBusy when every buffer for the (dest, device) shard is in
// flight (the backpressure contract: the caller polls or backs off) and
// ErrRecordTooLarge for records that cannot fit a buffer even alone.
// Sealed buffers are posted before Append returns; the post's transient
// refusals park on the shard's pending list for Poll to retry.
func (ag *Aggregator) Append(t *Thread, dest int, rec []byte) error {
	flen := frameOverhead + len(rec)
	if flen > ag.cfg.BufBytes {
		return ErrRecordTooLarge
	}
	sh := t.col.shard(ag, dest)
	if t.penPerLine > 0 {
		// The homing model: a remote-homed buffer costs the producer one
		// cross-domain transfer per cache line the record dirties.
		spin.Delay(t.penPerLine * (1 + (flen-1)/spin.CacheLineSize))
	}
	counting := ag.tel.Counting()
	var sealed, sealed2 *buffer
	sh.mu.Lock()
	b := sh.cur
	if b != nil && len(b.data)+flen > cap(b.data) {
		sealed, b, sh.cur = b, nil, nil // size flush: post after unlocking
		if counting {
			sh.n.FlushSize++
		}
	}
	if b == nil {
		n := len(sh.free)
		if n == 0 {
			if counting {
				sh.n.Busy++
			}
			sh.mu.Unlock()
			if sealed != nil {
				sh.post(sealed, t)
			}
			return ErrBusy
		}
		b = sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.cur = b
	}
	if len(b.data) == 0 {
		sh.birth = t.col.epoch.Load()
	}
	off := len(b.data)
	b.data = b.data[:off+flen]
	binary.LittleEndian.PutUint16(b.data[off:], uint16(len(rec)))
	copy(b.data[off+frameOverhead:], rec)
	b.recs++
	if cap(b.data)-len(b.data) < frameOverhead {
		sealed2, sh.cur = b, nil // exactly full: not even an empty record fits
	}
	if counting {
		sh.n.Appends++
		if sealed2 != nil {
			sh.n.FlushSize++
		}
	}
	sh.mu.Unlock()
	if sealed != nil {
		sh.post(sealed, t)
	}
	if sealed2 != nil {
		sh.post(sealed2, t)
	}
	return nil
}

// AppendWait is Append that blocks under backpressure: on ErrBusy it
// polls the thread's device (draining transmit completions and retrying
// refused buffers) and retries until the record is accepted. Other errors
// return immediately.
func (ag *Aggregator) AppendWait(t *Thread, dest int, rec []byte) error {
	for {
		err := ag.Append(t, dest, rec)
		if err != ErrBusy {
			return err
		}
		ag.Poll(t)
	}
}

// post posts a sealed buffer as one active message on the shard's device.
// The buffer is its own completion object: Posted recycles on TxDone,
// the inject fast path (Done, completion not signaled) recycles here, and
// a Retry parks the buffer on the pending list — the network said no;
// Poll retries once progress freed resources.
func (sh *shard) post(b *buffer, t *Thread) {
	if len(b.data) == 0 {
		sh.recycle(b)
		return
	}
	st, err := sh.ag.rt.PostAM(sh.dest, b.data, 0, b, core.Options{
		Device: sh.dev, Worker: t.w, RComp: sh.ag.rcomp,
	})
	if err != nil {
		if errors.Is(err, core.ErrPeerDead) || errors.Is(err, core.ErrClosed) {
			// The batch can never be delivered: error-complete it (record
			// count to OnError) instead of wedging Flush or crashing.
			sh.fail(b, err)
			return
		}
		panic("agg: PostAM: " + err.Error())
	}
	switch {
	case st.IsRetry():
		counting := sh.ag.tel.Counting()
		sh.mu.Lock()
		sh.pend = append(sh.pend, b)
		if counting {
			sh.n.Parks++
		}
		sh.mu.Unlock()
	case st.IsDone():
		sh.recycle(b)
	}
}

// fail drops a sealed buffer whose batch can never be delivered: the
// record count is tallied, OnError (if any) is told, and the buffer
// recycles so the shard's population — and Flush's quiesce condition —
// stays intact.
func (sh *shard) fail(b *buffer, err error) {
	recs := b.recs
	sh.mu.Lock()
	sh.dropped += int64(recs)
	sh.mu.Unlock()
	if fn := sh.ag.cfg.OnError; fn != nil {
		fn(sh.dest, recs, err)
	}
	sh.recycle(b)
}

// recycle returns a buffer to its shard's freelist (TxDone path: poller
// context; also the inject fast path and empty seals).
func (sh *shard) recycle(b *buffer) {
	b.data = b.data[:0]
	b.recs = 0
	sh.mu.Lock()
	sh.free = append(sh.free, b)
	sh.mu.Unlock()
}

// flush posts the shard's parked buffers (retrying what the network
// refused) and then its current buffer when that is non-empty and its
// first record is at least minAge epochs old at epoch now, counting the
// seal into reason (&sh.n.FlushAge or &sh.n.FlushExplicit). minAge 0
// seals any non-empty buffer. One lock acquisition takes both, so a Poll
// pays one per contacted destination.
func (sh *shard) flush(t *Thread, now, minAge uint64, reason *int64) {
	counting := sh.ag.tel.Counting()
	var sealed *buffer
	sh.mu.Lock()
	if b := sh.cur; b != nil && len(b.data) > 0 && now-sh.birth >= minAge {
		sealed, sh.cur = b, nil
		if counting {
			*reason++
		}
	}
	pend := sh.pend
	sh.pend = nil
	sh.mu.Unlock()
	for _, b := range pend {
		sh.post(b, t) // may re-park; that's the next round's problem
	}
	if sealed != nil {
		sh.post(sealed, t)
	}
}

// Poll is the aggregator's progress call: it advances the age epoch of
// the thread's column, seals that column's buffers whose first record is
// FlushAge epochs old, retries buffers the network refused, and
// progresses the thread's device (returning its completion count —
// TxDone completions here are what recycle in-flight buffers). Producers
// and servers alike should call it regularly; AppendWait calls it under
// backpressure.
func (ag *Aggregator) Poll(t *Thread) int {
	e := t.col.epoch.Add(1)
	age := uint64(ag.cfg.FlushAge)
	t.col.each(func(sh *shard) { sh.flush(t, e, age, &sh.n.FlushAge) })
	return t.col.dev.ProgressW(t.w)
}

// FlushDest seals and posts the current buffer for dest on the thread's
// device and retries anything the network previously refused. It does not
// wait for acceptance or delivery; use Flush for a draining barrier.
func (ag *Aggregator) FlushDest(t *Thread, dest int) {
	if sh := t.col.shards[dest].Load(); sh != nil { // nil: never appended toward dest
		sh.flush(t, 0, 0, &sh.n.FlushExplicit)
	}
}

// Flush seals and posts every queued buffer — all destinations, all
// device columns — and drives progress until each buffer has been
// accepted by the network and recycled by its transmit completion: on
// return no aggregated bytes remain queued or in flight at this rank.
// Call it with producers quiescent (end of phase, before shutdown);
// records a concurrent producer appends during the call are sealed by
// the next round of the drain loop. Cross-column posts use the calling
// thread's worker, which is safe — posting on any device from any thread
// is — but pays the cross-domain cost when columns live on other domains;
// flushing is the amortized path, so that is the right trade.
func (ag *Aggregator) Flush(t *Thread) {
	for {
		for _, col := range ag.cols {
			col.each(func(sh *shard) { sh.flush(t, 0, 0, &sh.n.FlushExplicit) })
		}
		if ag.idle(t) {
			return
		}
		for _, col := range ag.cols {
			col.dev.ProgressW(t.w)
		}
	}
}

// idle reports whether every buffer of every shard is back on its
// freelist (nothing queued, pending, or in flight).
func (ag *Aggregator) idle(t *Thread) bool {
	for _, col := range ag.cols {
		for i := range col.shards {
			sh := col.shards[i].Load()
			if sh == nil {
				continue
			}
			sh.mu.Lock()
			free := len(sh.free)
			curEmpty := sh.cur == nil || len(sh.cur.data) == 0
			if sh.cur != nil {
				free++
			}
			sh.mu.Unlock()
			if !curEmpty || free != ag.cfg.BufsPerDest {
				return false
			}
		}
	}
	return true
}

// QueuedBytes reports the total queued-but-unflushed bytes across the
// aggregator: current-buffer fill plus sealed-but-refused pending
// buffers. In-flight (posted) buffers are the network's, not queued. The
// value is a racy snapshot for diagnostics and the backpressure gate; by
// construction it never exceeds shards x BufsPerDest x BufBytes. The same
// reading is published as Agg.QueuedBytes (beside the agg counts) in
// Runtime.Telemetry().Snapshot().
func (ag *Aggregator) QueuedBytes() int {
	s, _ := ag.sum()
	return int(s.QueuedBytes)
}

// sum adds up every shard's counts, queued bytes and dropped records,
// each shard read under its lock (the telemetry reader, QueuedBytes and
// DroppedRecords all read through it).
func (ag *Aggregator) sum() (s telemetry.AggSnap, dropped int64) {
	for _, col := range ag.cols {
		col.each(func(sh *shard) {
			sh.mu.Lock()
			s = s.Add(sh.n)
			if sh.cur != nil {
				s.QueuedBytes += int64(len(sh.cur.data))
			}
			for _, b := range sh.pend {
				s.QueuedBytes += int64(len(b.data))
			}
			dropped += sh.dropped
			sh.mu.Unlock()
		})
	}
	return s, dropped
}

// scatter is the receive side: one delivered batch fans out into one sink
// call per record, zero-copy out of the arrived packet (poller context;
// Sink documents the retention rules).
func (ag *Aggregator) scatter(st base.Status) {
	p := st.Buffer
	for len(p) >= frameOverhead {
		n := int(binary.LittleEndian.Uint16(p))
		p = p[frameOverhead:]
		if n > len(p) {
			panic("agg: corrupt batch frame")
		}
		ag.sink(st.Rank, p[:n])
		p = p[n:]
	}
}

// AppendFrame appends one length-prefixed record frame to dst (the wire
// framing scatter walks). Exported for transports that coalesce with the
// same framing over non-LCI substrates.
func AppendFrame(dst, rec []byte) []byte {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(rec)))
	return append(append(dst, hdr[:]...), rec...)
}

// WalkFrames scatters a framed batch payload into per-record calls —
// the receive-side counterpart of AppendFrame.
func WalkFrames(p []byte, fn func(rec []byte)) {
	for len(p) >= frameOverhead {
		n := int(binary.LittleEndian.Uint16(p))
		p = p[frameOverhead:]
		if n > len(p) {
			panic("agg: corrupt batch frame")
		}
		fn(p[:n])
		p = p[n:]
	}
}

// MaxRecord returns the largest record Append accepts.
func (ag *Aggregator) MaxRecord() int { return ag.cfg.BufBytes - frameOverhead }
