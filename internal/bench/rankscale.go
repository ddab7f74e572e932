package bench

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"lci"
	"lci/internal/core"
)

// rankScaleCfg is the lean runtime sizing used by the rank-scaling
// measurements: a 256-rank world hosts 256 full runtimes in one process,
// so per-rank pools are trimmed (smaller packet pool, fewer pre-posted
// receives, smaller matching table) to keep the world inside a CI
// container's memory while leaving every code path identical.
func rankScaleCfg() core.Config {
	return core.Config{
		NumDevices:       1,
		PacketSize:       2048,
		PacketsPerWorker: 128,
		PreRecvs:         32,
		MatchBuckets:     256,
	}
}

// RankScale is the latency series at one world size, in million
// operations per second: an 8-byte neighbor ping-pong (ranks r and r^1
// pair up — the flat O(1) reference), the dissemination barrier and the
// 8-byte recursive-doubling allreduce (both O(log n)), in that order.
//
// On an oversubscribed host the raw wall time of n spinning
// goroutine-ranks grows like n*f(n) — every rank's work serializes onto
// the same few cores — so callers comparing world sizes must normalize
// per rank (1/(rate·ranks)), which isolates the algorithmic factor f(n).
// TestRankScaleShape gates on exactly that quotient.
func RankScale(platform lci.Platform, ranks, iters int) []Workload {
	opts := []lci.WorldOption{lci.WithPlatform(platform), lci.WithRuntimeConfig(rankScaleCfg())}
	var ws []Workload
	for _, name := range []string{"p2p", "barrier", "allreduce"} {
		ws = append(ws, workload("Mops", func() (int64, time.Duration, error) {
			if ranks%2 != 0 {
				return 0, 0, fmt.Errorf("bench: rank-scale sweep needs an even rank count, got %d", ranks)
			}
			return timeCollective(ranks, iters, opts, func(rt *lci.Runtime) func() error {
				switch name {
				case "barrier":
					return func() error { return rt.Barrier() }
				case "allreduce":
					send := make([]byte, 8)
					recv := make([]byte, 8)
					binary.LittleEndian.PutUint64(send, uint64(rt.Rank()))
					return func() error { return rt.Allreduce(send, recv, lci.Int64, lci.OpSum) }
				}
				return neighborPingPong(rt)
			})
		}, "%s %s rankscale ranks=%d", name, platform.Name, ranks))
	}
	return ws
}

// neighborPingPong is rank rt's body of the 8-byte neighbor ping-pong:
// the even rank leads, the odd rank echoes, and one call is one round
// trip.
func neighborPingPong(rt *lci.Runtime) func() error {
	const tag = 7321
	peer := rt.Rank() ^ 1
	outBuf := make([]byte, 8)
	inBuf := make([]byte, 8)
	progress := func() { rt.Progress() }
	send := func() error {
		for miss := 0; ; miss++ {
			st, err := rt.PostSend(peer, outBuf, tag, nil)
			if err != nil || !st.IsRetry() {
				return err
			}
			rt.Progress()
			if miss&63 == 63 {
				runtime.Gosched() // oversubscription fairness
			}
		}
	}
	recv := func() error {
		c := lci.NewCounter()
		st, err := rt.PostRecv(peer, inBuf, tag, c)
		if err != nil {
			return err
		}
		spinUntil(progress, func() bool { return !st.IsPosted() || c.Load() >= 1 })
		return nil
	}
	first, second := send, recv
	if rt.Rank()%2 == 1 {
		first, second = recv, send
	}
	return func() error {
		if err := first(); err != nil {
			return err
		}
		return second()
	}
}

// SparseStats summarizes connection state after a sparse all-to-few
// workload: on a world of Ranks ranks where each rank contacts only
// PeersPerRank neighbors, lazy establishment must leave per-peer state
// proportional to contacted peers, never to world size.
type SparseStats struct {
	Platform     string
	Ranks        int
	PeersPerRank int
	// MaxFabricPeers is the largest per-rank distinct-destination count
	// the fabric recorded at establishment time (Fabric.ConnectedPeers).
	MaxFabricPeers int
	// MaxDevicePeers and TotalDevicePeers count provider-level
	// established endpoints (connected QPs on ibv, resolved peer
	// addresses on ofi) — the per-rank maximum and the world-wide sum.
	MaxDevicePeers   int
	TotalDevicePeers int
}

func (s SparseStats) String() string {
	return fmt.Sprintf("sparse    %-11s ranks=%-3d peers/rank=%d  fabric-max=%d dev-max=%d dev-total=%d",
		s.Platform, s.Ranks, s.PeersPerRank, s.MaxFabricPeers, s.MaxDevicePeers, s.TotalDevicePeers)
}

// RankScaleSparse runs the sparse workload: every rank posts one eager
// AM to each of ranks r+1 .. r+peersPerRank (mod n) and terminates after
// receiving exactly peersPerRank deliveries of its own. No barrier runs
// — a dissemination barrier would itself establish ~log2(n) extra peers
// per rank and blur the bound under test; counting deliveries is the
// termination condition instead. The returned stats let a gate assert
// established endpoints == contacted peers exactly.
func RankScaleSparse(platform lci.Platform, ranks, peersPerRank int) (SparseStats, error) {
	if peersPerRank >= ranks {
		return SparseStats{}, fmt.Errorf("bench: peersPerRank %d must be < ranks %d", peersPerRank, ranks)
	}
	w := lci.NewWorld(ranks, lci.WithPlatform(platform), lci.WithRuntimeConfig(rankScaleCfg()))
	defer w.Close()
	devPeers := make([]int, ranks) // each rank writes only its own slot
	err := w.Launch(func(rt *lci.Runtime) error {
		var got atomic.Int64
		// Registration order is symmetric across ranks, so the handle
		// means the same thing everywhere.
		rc := rt.RegisterHandler(func(st lci.Status) { got.Add(1) })
		payload := []byte("sparse!!")
		for i := 1; i <= peersPerRank; i++ {
			dst := (rt.Rank() + i) % ranks
			for {
				st, err := rt.PostAM(dst, payload, rc)
				if err != nil {
					return err
				}
				if !st.IsRetry() {
					break
				}
				rt.Progress()
			}
		}
		deadline := time.Now().Add(2 * time.Minute)
		for miss := 0; got.Load() < int64(peersPerRank); miss++ {
			rt.Progress()
			if miss&63 == 63 {
				runtime.Gosched() // oversubscription fairness
				if time.Now().After(deadline) {
					return fmt.Errorf("rank %d: received %d of %d sparse AMs", rt.Rank(), got.Load(), peersPerRank)
				}
			}
		}
		devPeers[rt.Rank()] = rt.Telemetry().Snapshot().Devices[0].Gauges.ConnectedPeers
		return nil
	})
	if err != nil {
		return SparseStats{}, err
	}
	st := SparseStats{Platform: platform.Name, Ranks: ranks, PeersPerRank: peersPerRank}
	fab := w.Fabric()
	for r := 0; r < ranks; r++ {
		if p := fab.ConnectedPeers(r); p > st.MaxFabricPeers {
			st.MaxFabricPeers = p
		}
		if devPeers[r] > st.MaxDevicePeers {
			st.MaxDevicePeers = devPeers[r]
		}
		st.TotalDevicePeers += devPeers[r]
	}
	return st, nil
}
