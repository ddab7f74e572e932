package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanName names the public call a span times.
type spanName uint8

const (
	spUnit spanName = iota // one unit operation: round trip, step or superstep
	spPostAM
	spPostSend
	spPostRecv
	spProgress
	spHandler
	spCQPop
	spAppend
	spFlushDest
	spPoll
	spAllreduce
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"unit", "core.post_am", "core.post_send", "core.post_recv", "core.progress",
	"core.handler", "comp.cq_pop", "agg.append", "agg.flushdest", "agg.poll",
	"coll.allreduce",
}

// span is one timed call: start and end in nanoseconds since the
// process's trace epoch, the unit operation it served, and the index of
// the enclosing span in the same tracer (-1 for none).
type span struct {
	start, end int64
	op         uint64
	parent     int32
	name       spanName
}

var traceEpoch = time.Now()

func now() int64 { return int64(time.Since(traceEpoch)) }

// spanCap bounds the spans one tracer keeps in memory.
const spanCap = 1 << 18

// tracer records the spans and call counts of one worker goroutine. The
// zero value is off: every method is then a single branch, so untraced
// runs pay nothing measurable. Only its goroutine writes it, except that
// a handler running inside that goroutine's Progress call records into
// it too (still the same goroutine).
type tracer struct {
	on    bool
	spans []span
	stack []int32

	// op is the unit operation the goroutine is working on; sampled says
	// whether its spans are recorded. Unit operations are sampled so the
	// recorded spans spread evenly over the phase instead of filling the
	// buffer in its first second.
	op      uint64
	sampled bool
	t0, dur int64

	// tid identifies the goroutine's locked OS thread, so a handler can
	// find the tracer of the goroutine that runs it.
	tid int

	// Call counts over every call, sampled or not.
	progressCalls, progressEmpty int64
	popCalls, popHits            int64
	appends, busy                int64
}

func newTracers(seconds float64) []*tracer {
	trs := make([]*tracer, nThreads)
	for i := range trs {
		trs[i] = &tracer{
			on:    true,
			spans: make([]span, 0, spanCap),
			stack: make([]int32, 0, 16),
			dur:   int64(seconds * float64(time.Second)),
		}
	}
	return trs
}

// startUnit opens the span of unit operation op and decides whether the
// operation is sampled: it is when the buffer is less full than the
// share of the phase already elapsed.
//
// Operation ids are counter<<2 | goroutine; startUnit sets sampledBit in
// the id of a sampled operation, so a handler that learns the id from
// the payload knows to record its span.
func (t *tracer) startUnit(op uint64) int32 {
	t.op = op
	if !t.on {
		return -1
	}
	n := now()
	if t.t0 == 0 {
		t.t0 = n
	}
	used := int64(len(t.spans))
	t.sampled = t.dur <= 0 || used*t.dur < int64(cap(t.spans))*(n-t.t0)
	if t.sampled {
		t.op |= sampledBit
	}
	return t.begin(spUnit)
}

// opID builds the id of a goroutine's n-th unit operation.
func opID(n uint64, g int) uint64 { return n<<2 | uint64(g) }

const sampledBit = 1 << 1

// begin opens a span for the current unit operation.
func (t *tracer) begin(name spanName) int32 {
	if !t.on {
		return -1
	}
	return t.beginOp(name, t.op, false)
}

// beginOp opens a span serving op. It is recorded when the current unit
// operation is sampled, when the enclosing span is recorded (so a
// recorded span's self time never hides an unrecorded child), or when
// force is set (a handler serving a sampled operation of another
// goroutine).
func (t *tracer) beginOp(name spanName, op uint64, force bool) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := int32(-1)
	if (t.sampled || parent >= 0 || force) && len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{start: now(), op: op, parent: parent, name: name})
	}
	t.stack = append(t.stack, idx)
	return idx
}

// end closes the innermost open span, which begin returned as idx.
func (t *tracer) end(idx int32) {
	if !t.on {
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
	if idx >= 0 {
		t.spans[idx].end = now()
	}
}

// spanStats is what the analysis derives from the recorded spans.
type spanStats struct {
	// dur and self hold every recorded span's duration and self time
	// (duration minus its direct children), by name, in nanoseconds.
	dur, self [nSpanNames][]int64
	// accounted holds, per sampled unit operation, the share of its wall
	// time covered by the self time of the spans serving it, on either
	// goroutine.
	accounted []float64
	// allreduceFrac holds, per sampled superstep, the allreduce span's
	// share of the superstep.
	allreduceFrac []float64
}

type interval struct{ lo, hi int64 }

// analyse computes durations, self times and the per-unit accounting of
// the spans every tracer recorded.
func analyse(trs []*tracer) spanStats {
	var st spanStats
	type unitRec struct {
		lo, hi int64
		selfs  []interval
	}
	units := map[uint64]*unitRec{}
	type owned struct {
		op    uint64
		selfs []interval
	}
	var pending []owned
	for _, tr := range trs {
		children := make([][]int32, len(tr.spans))
		for i, s := range tr.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], int32(i))
			}
		}
		for i, s := range tr.spans {
			if s.end == 0 {
				continue // still open when the phase ended
			}
			// Children run one after another on this goroutine, in start
			// order, so the self intervals are the gaps between them.
			d := s.end - s.start
			selfs := make([]interval, 0, len(children[i])+1)
			cur := s.start
			var childDur int64
			for _, c := range children[i] {
				cs := tr.spans[c]
				if cs.end == 0 {
					continue
				}
				childDur += cs.end - cs.start
				if cs.start > cur {
					selfs = append(selfs, interval{cur, cs.start})
				}
				cur = max(cur, cs.end)
			}
			if s.end > cur {
				selfs = append(selfs, interval{cur, s.end})
			}
			st.dur[s.name] = append(st.dur[s.name], d)
			st.self[s.name] = append(st.self[s.name], d-childDur)
			if s.name == spUnit {
				units[s.op] = &unitRec{lo: s.start, hi: s.end}
				continue
			}
			pending = append(pending, owned{s.op, selfs})
			if s.name == spAllreduce && s.parent >= 0 {
				if u := tr.spans[s.parent]; u.name == spUnit && u.end > u.start {
					st.allreduceFrac = append(st.allreduceFrac, float64(d)/float64(u.end-u.start))
				}
			}
		}
	}
	for _, p := range pending {
		if u := units[p.op]; u != nil {
			u.selfs = append(u.selfs, p.selfs...)
		}
	}
	for _, u := range units {
		if u.hi <= u.lo {
			continue
		}
		st.accounted = append(st.accounted, float64(coverage(u.selfs, u.lo, u.hi))/float64(u.hi-u.lo))
	}
	return st
}

// coverage returns the length of the union of ivs clipped to [lo, hi].
func coverage(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanFileCap bounds the spans per goroutine writeSpans writes out, so a
// traced run leaves a few megabytes behind, not tens.
const spanFileCap = 1 << 16

// writeSpans writes the first spanFileCap recorded spans of each
// goroutine as CSV lines (goroutine, index, parent, name, op, start_ns,
// end_ns) to <traceOut>/<workload>-seed<seed>.csv.
func writeSpans(cfg runConfig, trs []*tracer) error {
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "goroutine,index,parent,name,op,start_ns,end_ns")
	for g, tr := range trs {
		for i, s := range tr.spans[:min(len(tr.spans), spanFileCap)] {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", g, i, s.parent, spanNames[s.name], s.op, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
