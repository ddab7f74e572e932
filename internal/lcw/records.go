package lcw

import (
	"fmt"

	"lci"
	"lci/internal/agg"
	"lci/internal/spin"
)

// RecordSender is the aggregated small-record path over a Comm: many tiny
// records per destination coalesce into full batch payloads before they
// touch the library, the pattern both applications (§6.3, §6.4) depend
// on. Records are delivered one at a time to the record sink registered
// with Records; plain SendAM traffic keeps flowing beside it into the
// Comm's sink for control messages.
type RecordSender interface {
	// SendRecord appends rec for dst from thread tid, flushing and
	// progressing that thread as needed; it blocks rather than queue
	// unboundedly. The record is copied.
	SendRecord(dst int, rec []byte, tid int)
	// FlushRecords pushes out every queued record (all destinations)
	// and, on LCI, waits for the flushed buffers to complete. Call it
	// before any message whose ordering depends on prior records having
	// been sent (end-of-phase counts, shutdown).
	FlushRecords(tid int)
}

// recordMagic prefixes coalesced batch payloads on the baselines,
// distinguishing them from plain SendAM payloads in the Comm's sink.
const recordMagic = 0xA6

// Records layers the record aggregation path over c and registers both
// sinks: recSink receives each aggregated record, rawSink every plain
// SendAM payload. It must be called once, before any traffic, in place
// of SetSink, at the same point on every rank. On LCI records ride
// internal/agg natively (per-(destination, device) buffers, eager-sized,
// NUMA-homed) and every thread's Progress polls the aggregator; the
// baselines get a generic per-destination coalescer with the same wire
// framing, its batches clamped to MaxAM. Raw payloads must not start
// with byte 0xA6 — the coalescer claims that first byte to mark batches.
func Records(c *Comm, bufBytes int, recSink, rawSink func(int, []byte)) RecordSender {
	if c.rt == nil {
		return newCoalescer(c, bufBytes, recSink, rawSink)
	}
	c.SetSink(rawSink)
	r := &aggRecords{c: c, ag: c.rt.NewAggregator(recSink, lci.AggConfig{BufBytes: bufBytes})}
	for _, th := range c.threads {
		t := th.(*lciThread)
		t.ag, t.at = r.ag, r.ag.ThreadOn(t.dev.Index())
	}
	return r
}

// aggRecords is the LCI record path: internal/agg over the device pool,
// one aggregation handle per thread on that thread's device.
type aggRecords struct {
	c  *Comm
	ag *lci.Aggregator
}

func (r *aggRecords) SendRecord(dst int, rec []byte, tid int) {
	t := r.c.threads[tid].(*lciThread)
	for {
		err := r.ag.Append(t.at, dst, rec)
		if err == nil {
			return
		}
		if err != lci.ErrAggBusy {
			panic(fmt.Sprintf("lcw/lci: Append: %v", err))
		}
		// Every buffer for dst is in flight: progressing our device
		// returns transmit credits and recycles buffers, and drains
		// incoming records, so mutually flooding ranks converge.
		t.Progress()
	}
}

func (r *aggRecords) FlushRecords(tid int) { r.ag.Flush(r.c.threads[tid].(*lciThread).at) }

// coalescer is the record path for the baselines: one locked buffer per
// contacted destination, sealed and sent when the next record would
// overflow. SendAM itself provides the backpressure (both baselines
// block inside injection), so one buffer per destination already bounds
// queued-but-unsent bytes at contactedPeers*bufBytes per rank — buffers
// allocate on the first record toward a destination, so a sparse job on
// a large world never pays NumRanks*bufBytes. A batch never exceeds
// MaxAM: bufBytes is clamped to it.
type coalescer struct {
	c        *Comm
	bufBytes int
	shards   []coalShard
}

type coalShard struct {
	mu  spin.Mutex
	buf []byte // nil until the first record toward this destination
	_   spin.Pad
}

func newCoalescer(c *Comm, bufBytes int, recSink, rawSink func(int, []byte)) *coalescer {
	co := &coalescer{c: c, bufBytes: min(bufBytes, c.maxAM), shards: make([]coalShard, c.nranks)}
	c.SetSink(func(src int, payload []byte) {
		if len(payload) > 0 && payload[0] == recordMagic {
			agg.WalkFrames(payload[1:], func(rec []byte) { recSink(src, rec) })
			return
		}
		rawSink(src, payload)
	})
	return co
}

func (co *coalescer) fresh() []byte {
	b := make([]byte, 1, co.bufBytes)
	b[0] = recordMagic
	return b
}

func (co *coalescer) SendRecord(dst int, rec []byte, tid int) {
	s := &co.shards[dst]
	var out []byte
	s.mu.Lock()
	if s.buf == nil {
		s.buf = co.fresh()
	}
	if len(s.buf)+agg.FrameOverhead+len(rec) > co.bufBytes && len(s.buf) > 1 {
		out, s.buf = s.buf, co.fresh()
	}
	s.buf = agg.AppendFrame(s.buf, rec)
	s.mu.Unlock()
	if out != nil {
		Send(co.c.threads[tid], dst, out)
	}
}

func (co *coalescer) FlushRecords(tid int) {
	for dst := range co.shards {
		s := &co.shards[dst]
		var out []byte
		s.mu.Lock()
		if len(s.buf) > 1 {
			out, s.buf = s.buf, co.fresh()
		}
		s.mu.Unlock() // nil/empty buffers (never-contacted peers) stay nil
		if out != nil {
			Send(co.c.threads[tid], dst, out)
		}
	}
}
