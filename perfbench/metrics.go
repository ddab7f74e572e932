package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"lci"
)

// counters sums, over both ranks, the runtime telemetry, the fabric's
// per-rank statistics and the completion queues' drop counts.
type counters struct {
	posts                           int64 // posts accepted (inline, eager, rendezvous, put, get)
	retryPacket, retryTx, retryLock int64 // posts bounced, by reason
	parks                           int64 // posts diverted to the backlog queue
	// replyParks counts the benchmark's own no-retry posts (am-shared's
	// handler replies) that came back diverted to the backlog queue. The
	// library counts those only as parks, whatever refused them.
	replyParks                 int64
	matchHits, matchUnexpected int64
	gets, bounces, steals      int64 // packet pool
	aggAppends, aggBatches     int64
	netMsgs, netBytes          int64
	dropped                    int64 // completion-queue drops
}

func readCounters(w *lci.World, rts [2]*lci.Runtime, cqs ...*lci.CQ) counters {
	var c counters
	for r, rt := range rts {
		s := rt.Telemetry().Snapshot()
		t := s.Total()
		c.posts += t.PostInline + t.PostEager + t.PostRendezvous + t.PostPut + t.PostGet
		c.retryPacket += t.RetryPacketPool
		c.retryTx += t.RetryTxFull
		c.retryLock += t.RetryLockBusy
		c.parks += t.BacklogParks
		c.matchHits += t.MatchHits
		c.matchUnexpected += t.MatchUnexpected
		c.gets += s.Pool.Gets
		c.bounces += s.Pool.Bounces
		c.steals += s.Pool.Steals
		c.aggAppends += s.Agg.Appends
		c.aggBatches += s.Agg.FlushSize + s.Agg.FlushAge + s.Agg.FlushExplicit
		fs := w.Fabric().RankStats(r)
		c.netMsgs += fs.Msgs
		c.netBytes += fs.Bytes
	}
	for _, q := range cqs {
		c.dropped += q.Dropped()
	}
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		posts: a.posts - b.posts, retryPacket: a.retryPacket - b.retryPacket,
		retryTx: a.retryTx - b.retryTx, retryLock: a.retryLock - b.retryLock,
		parks: a.parks - b.parks, replyParks: a.replyParks - b.replyParks, matchHits: a.matchHits - b.matchHits,
		matchUnexpected: a.matchUnexpected - b.matchUnexpected,
		gets:            a.gets - b.gets, bounces: a.bounces - b.bounces, steals: a.steals - b.steals,
		aggAppends: a.aggAppends - b.aggAppends, aggBatches: a.aggBatches - b.aggBatches,
		netMsgs: a.netMsgs - b.netMsgs, netBytes: a.netBytes - b.netBytes,
		dropped: a.dropped - b.dropped,
	}
}

// dumpTelemetry writes both ranks' telemetry snapshots.
func dumpTelemetry(w io.Writer, rts [2]*lci.Runtime) {
	for r, rt := range rts {
		fmt.Fprintf(w, "rank %d telemetry:\n%s\n", r, rt.Telemetry().Snapshot().String())
	}
}

// report is one measured phase: what the workload did, the counter
// deltas over it, and for a traced phase the span analysis.
type report struct {
	phase      phaseResult
	delta      counters
	wall, cpu  time.Duration
	allocBytes uint64
	tracers    [nThreads]*tracer
	overhead   float64 // traced p50 / untraced p50 - 1
	spans      spanStats
}

// retryShare returns n as a share of every post attempt, accepted or
// bounced.
func (r report) retryShare(n int64) float64 {
	d := r.delta
	return ratio(n, d.posts+d.retryPacket+d.retryTx+d.retryLock+d.parks)
}

// txFullFrac is what the pacer guard limits: posts bounced by a full
// transmit queue plus handler replies parked on the backlog, as a share of
// every post attempt. A no-retry reply that meets the inject gap is parked
// instead of bounced, so without it the guard would see only the pings.
func (r report) txFullFrac() float64 { return r.retryShare(r.delta.retryTx + r.delta.replyParks) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd fills in the end-to-end metrics: for each, the median over
// the rounds.
func endToEnd(rounds []report, setupS float64, m map[string]metric) {
	per := map[string][]float64{}
	for _, r := range rounds {
		secs := r.phase.elapsed.Seconds()
		per["latency_p50_us"] = append(per["latency_p50_us"], quantile(r.phase.lat, 0.50)/1e3)
		per["latency_p90_us"] = append(per["latency_p90_us"], quantile(r.phase.lat, 0.90)/1e3)
		per["msg_rate_mps"] = append(per["msg_rate_mps"], float64(r.phase.msgs)/secs/1e6)
		per["goodput_gbps"] = append(per["goodput_gbps"], float64(r.phase.bytes)/secs/1e9)
		per["alloc_bytes_per_msg"] = append(per["alloc_bytes_per_msg"], float64(r.allocBytes)/float64(max(r.phase.msgs, 1)))
	}
	for name, unit := range map[string]string{
		"latency_p50_us": "us", "latency_p90_us": "us", "msg_rate_mps": "Mmsg/s",
		"goodput_gbps": "GB/s", "alloc_bytes_per_msg": "B/msg",
	} {
		m[name] = metric{median(per[name]), unit}
	}
	m["setup_s"] = metric{setupS, "s"}
}

// layerMetrics fills in the per-layer metrics. A span metric of a call
// the workload never makes reads 0.
func (r report) layerMetrics(m map[string]metric) {
	sp := r.spans
	var tc tracer
	for _, t := range r.tracers {
		tc.progressCalls += t.progressCalls
		tc.progressEmpty += t.progressEmpty
		tc.popCalls += t.popCalls
		tc.popHits += t.popHits
		tc.appends += t.appends
		tc.busy += t.busy
	}
	d := r.delta
	msgs := r.phase.msgs
	m["core.post_am_ns"] = metric{median(sp.dur[spPostAM]), "ns"}
	m["core.post_send_ns"] = metric{median(sp.dur[spPostSend]), "ns"}
	m["core.post_recv_ns"] = metric{median(sp.dur[spPostRecv]), "ns"}
	m["core.progress_ns"] = metric{median(sp.dur[spProgress]), "ns"}
	m["core.progress_empty_frac"] = metric{ratio(tc.progressEmpty, tc.progressCalls), "ratio"}
	m["core.handler_self_ns"] = metric{median(sp.self[spHandler]), "ns"}
	m["core.retry_frac"] = metric{r.retryShare(d.retryPacket + d.retryTx + d.retryLock + d.parks), "ratio"}
	m["core.retry_txfull_frac"] = metric{r.txFullFrac(), "ratio"}
	m["core.retry_packet_frac"] = metric{r.retryShare(d.retryPacket), "ratio"}
	m["matching.unexpected_frac"] = metric{ratio(d.matchUnexpected, d.matchHits+d.matchUnexpected), "ratio"}
	m["packet.gets_per_msg"] = metric{ratio(d.gets, msgs), "count"}
	m["packet.bounce_frac"] = metric{ratio(d.bounces, d.gets), "ratio"}
	m["packet.steal_frac"] = metric{ratio(d.steals, d.gets), "ratio"}
	m["comp.cq_pop_ns"] = metric{median(sp.dur[spCQPop]), "ns"}
	m["comp.cq_pop_hit_frac"] = metric{ratio(tc.popHits, tc.popCalls), "ratio"}
	m["comp.cq_dropped"] = metric{float64(d.dropped), "count"}
	m["net.msgs_per_msg"] = metric{ratio(d.netMsgs, msgs), "count"}
	m["net.bytes_per_msg"] = metric{ratio(d.netBytes, msgs), "B"}
	m["agg.append_ns"] = metric{median(sp.dur[spAppend]), "ns"}
	m["agg.busy_frac"] = metric{ratio(tc.busy, tc.appends), "ratio"}
	m["agg.records_per_batch"] = metric{ratio(d.aggAppends, d.aggBatches), "count"}
	m["agg.flushdest_ns"] = metric{median(sp.dur[spFlushDest]), "ns"}
	m["agg.poll_ns"] = metric{median(sp.dur[spPoll]), "ns"}
	m["coll.allreduce_ns"] = metric{median(sp.dur[spAllreduce]), "ns"}
	m["coll.allreduce_frac"] = metric{median(sp.allreduceFrac), "ratio"}
	m["trace.overhead_frac"] = metric{r.overhead, "ratio"}
	m["trace.unit_accounted_frac"] = metric{median(sp.accounted), "ratio"}
}

// printHuman writes the readable part of the output, ahead of the result
// line: every metric with its unit, the failure share, the sample count,
// the host report and, for a traced run, the self-time breakdown.
func printHuman(w io.Writer, wl workload, cfg runConfig, rounds []report, host *hostReport, setups []float64, res result) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s: %s\n", wl.name, cfg.seed, cfg.seconds, mode, wl.why)
	for _, name := range sortedKeys(res.Metrics) {
		v := res.Metrics[name]
		fmt.Fprintf(w, "# %-26s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "# %-26s %14.6g ratio (%d failed / %d attempted)\n", "failed_frac",
		ratio(res.Failed, res.Attempted), res.Failed, res.Attempted)
	for i, r := range rounds {
		fmt.Fprintf(w, "# phase %d: %d unit operations (%d in the percentile sample), %d messages in %.3fs, p50/p90/p99 %.2f %.2f %.2f us\n",
			i+1, r.phase.units, len(r.phase.lat), r.phase.msgs, r.phase.elapsed.Seconds(),
			r.phase.p50()/1e3, quantile(r.phase.lat, 0.9)/1e3, quantile(r.phase.lat, 0.99)/1e3)
	}
	if !cfg.trace {
		var p99 []float64
		for _, r := range rounds {
			p99 = append(p99, quantile(r.phase.lat, 0.99)/1e3)
		}
		fmt.Fprintf(w, "# latency p99 (median over rounds, not gated: its run-to-run spread is wider than any bound): %.2f us\n", median(p99))
	}
	fmt.Fprintf(w, "# set-up times (s): %v\n", setups)
	r := rounds[len(rounds)-1]
	if cfg.trace {
		fmt.Fprintln(w, "# span self time medians (ns) and counts:")
		for n := spanName(0); n < nSpanNames; n++ {
			if len(r.spans.self[n]) > 0 {
				fmt.Fprintf(w, "#   %-16s self %10.0f  total %10.0f  n=%d\n", spanNames[n],
					median(r.spans.self[n]), median(r.spans.dur[n]), len(r.spans.self[n]))
			}
		}
		fmt.Fprintf(w, "# unit operations traced: %d; median share of a unit's wall time covered by span self time: %.3f\n",
			len(r.spans.accounted), median(r.spans.accounted))
		fmt.Fprintf(w, "# tracing overhead on latency p50: %+.1f%%\n", 100*r.overhead)
	}
	if b, err := json.Marshal(host); err == nil {
		fmt.Fprintf(w, "# host %s\n", b)
	}
	if host.Contended {
		fmt.Fprintln(w, "# WARNING: the host took CPU away during this run (see host_contended)")
	}
}
