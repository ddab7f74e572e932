package rpc

import (
	"fmt"

	"lci"
	"lci/internal/agg"
	"lci/internal/spin"
)

// RecordSender is the aggregated small-record path over a Transport:
// many tiny records per destination coalesce into full batch payloads
// before touching the substrate, the pattern both applications (§6.3,
// §6.4) depend on. Records are delivered one at a time to the record
// sink registered with Records; raw Send/Serve traffic keeps flowing
// beside it for control messages.
type RecordSender interface {
	// SendRecord appends rec for dst from worker thread tid, flushing
	// and progressing internally as needed; it blocks rather than queue
	// unboundedly. The record is copied.
	SendRecord(dst int, rec []byte, tid int)
	// FlushRecords pushes out every queued record (all destinations)
	// and, on transports with in-flight buffer accounting, waits for
	// the flushed buffers to complete. Call it before any message whose
	// ordering depends on prior records having been sent (end-of-phase
	// counts, shutdown).
	FlushRecords(tid int)
}

// recordTransport is implemented by transports with a native aggregation
// layer (LCI: internal/agg over the device pool).
type recordTransport interface {
	Transport
	RecordSender
	initRecords(bufBytes int, sink func(src int, rec []byte))
}

// recordMagic prefixes coalesced batch payloads on transports without a
// native aggregation layer, distinguishing them from raw Send payloads
// in the shared sink.
const recordMagic = 0xA6

// Records layers the record aggregation path over tr and registers both
// sinks: recSink receives each aggregated record, rawSink every plain
// Send payload. It must be called once, before any traffic, in place of
// SetSink. On the LCI transport records ride internal/agg natively
// (per-(destination, device) buffers, eager-threshold sized, NUMA-homed);
// other transports get a generic per-destination coalescer using the same
// wire framing. Raw payloads must not start with byte 0xA6 — the generic
// coalescer claims that first byte to mark batch payloads.
func Records(tr Transport, bufBytes int, recSink, rawSink func(int, []byte)) RecordSender {
	if rt, ok := tr.(recordTransport); ok {
		rt.SetSink(rawSink)
		rt.initRecords(bufBytes, recSink)
		return rt
	}
	return newCoalescer(tr, bufBytes, recSink, rawSink)
}

// ---------------------------------------------------------------------------
// LCI native path

func (t *LCITransport) initRecords(bufBytes int, sink func(int, []byte)) {
	t.agg = t.rt.NewAggregator(func(src int, rec []byte) {
		sink(src, rec)
		t.served.Add(1)
	}, lci.AggConfig{BufBytes: bufBytes})
	t.ths = make([]*lci.AggThread, len(t.devs))
	for tid, dev := range t.devs {
		t.ths[tid] = t.agg.ThreadOn(dev.Index())
	}
}

func (t *LCITransport) SendRecord(dst int, rec []byte, tid int) {
	for {
		err := t.agg.Append(t.ths[tid], dst, rec)
		if err == nil {
			return
		}
		if err != lci.ErrAggBusy {
			panic(fmt.Sprintf("rpc/lci: Append: %v", err))
		}
		// Every buffer for dst is in flight: serving progresses our
		// device (returning transmit credits and recycling buffers) and
		// drains incoming records, so mutually flooding ranks converge.
		t.Serve(tid)
	}
}

func (t *LCITransport) FlushRecords(tid int) { t.agg.Flush(t.ths[tid]) }

// ---------------------------------------------------------------------------
// Generic coalescer (GASNet / MPI substrates)

// coalescer is the record path for transports without native
// aggregation: one locked buffer per contacted destination, sealed and
// handed to Send when the next record would overflow. Send itself
// provides the backpressure (both baseline substrates block inside
// injection), so one buffer per destination already bounds
// queued-but-unsent bytes at contactedPeers*bufBytes per rank — buffers
// allocate on the first record toward a destination, so a sparse job on
// a large world never pays NumRanks*bufBytes. A batch never exceeds the
// transport's largest payload: bufBytes is clamped to it.
type coalescer struct {
	tr       Transport
	bufBytes int
	shards   []coalShard
}

type coalShard struct {
	mu  spin.Mutex
	buf []byte // nil until the first record toward this destination
	_   spin.Pad
}

func newCoalescer(tr Transport, bufBytes int, recSink, rawSink func(int, []byte)) *coalescer {
	if m, ok := tr.(interface{ maxPayload() int }); ok {
		bufBytes = min(bufBytes, m.maxPayload())
	}
	c := &coalescer{tr: tr, bufBytes: bufBytes, shards: make([]coalShard, tr.NumRanks())}
	tr.SetSink(func(src int, payload []byte) {
		if len(payload) > 0 && payload[0] == recordMagic {
			agg.WalkFrames(payload[1:], func(rec []byte) { recSink(src, rec) })
			return
		}
		rawSink(src, payload)
	})
	return c
}

func (c *coalescer) fresh() []byte {
	b := make([]byte, 1, c.bufBytes)
	b[0] = recordMagic
	return b
}

func (c *coalescer) SendRecord(dst int, rec []byte, tid int) {
	s := &c.shards[dst]
	var out []byte
	s.mu.Lock()
	if s.buf == nil {
		s.buf = c.fresh()
	}
	if len(s.buf)+agg.FrameOverhead+len(rec) > c.bufBytes && len(s.buf) > 1 {
		out, s.buf = s.buf, c.fresh()
	}
	s.buf = agg.AppendFrame(s.buf, rec)
	s.mu.Unlock()
	if out != nil {
		c.tr.Send(dst, out, tid)
	}
}

func (c *coalescer) FlushRecords(tid int) {
	for dst := range c.shards {
		s := &c.shards[dst]
		var out []byte
		s.mu.Lock()
		if len(s.buf) > 1 {
			out, s.buf = s.buf, c.fresh()
		}
		s.mu.Unlock() // nil/empty buffers (never-contacted peers) stay nil
		if out != nil {
			c.tr.Send(dst, out, tid)
		}
	}
}
