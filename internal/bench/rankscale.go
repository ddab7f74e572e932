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

// RankScale measures latency at one world size: an 8-byte neighbor
// ping-pong (ranks r and r^1 pair up — the flat O(1) reference), the
// dissemination barrier and the 8-byte recursive-doubling allreduce
// (both O(log n)). Results reuse the CollResult shape under Mode
// "rankscale" so cmd/lci-benchgate keys them like any collective row.
//
// On an oversubscribed host the raw wall time of n spinning
// goroutine-ranks grows like n*f(n) — every rank's work serializes onto
// the same few cores — so callers comparing world sizes must normalize
// per rank (Seconds/Ops/Ranks), which isolates the algorithmic factor
// f(n). TestRankScaleShape gates on exactly that quotient.
func RankScale(platform lci.Platform, ranks, iters int) ([]CollResult, error) {
	if ranks%2 != 0 {
		return nil, fmt.Errorf("bench: rank-scale sweep needs an even rank count, got %d", ranks)
	}
	type job struct {
		name string
		size int
	}
	jobs := []job{{"p2p", 8}, {"barrier", 0}, {"allreduce", 8}}
	var out []CollResult
	for _, j := range jobs {
		w := lci.NewWorld(ranks, lci.WithPlatform(platform), lci.WithRuntimeConfig(rankScaleCfg()))
		elapsed, err := timeCollective(w, iters, func(rt *lci.Runtime) func() error {
			switch j.name {
			case "barrier":
				return func() error { return rt.Barrier() }
			case "allreduce":
				send := make([]byte, j.size)
				recv := make([]byte, j.size)
				binary.LittleEndian.PutUint64(send, uint64(rt.Rank()))
				return func() error { return rt.Allreduce(send, recv, lci.Int64, lci.OpSum) }
			}
			// Neighbor ping-pong: even rank leads, odd rank echoes. One
			// body() call is one round trip.
			const tag = 7321
			peer := rt.Rank() ^ 1
			outBuf := make([]byte, j.size)
			inBuf := make([]byte, j.size)
			send := func() error {
				for miss := 0; ; miss++ {
					st, err := rt.PostSend(peer, outBuf, tag, nil)
					if err != nil {
						return err
					}
					if !st.IsRetry() {
						return nil
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
				for miss := 0; st.IsPosted() && c.Load() < 1; miss++ {
					rt.Progress()
					if miss&63 == 63 {
						runtime.Gosched()
					}
				}
				return nil
			}
			if rt.Rank()%2 == 0 {
				return func() error {
					if err := send(); err != nil {
						return err
					}
					return recv()
				}
			}
			return func() error {
				if err := recv(); err != nil {
					return err
				}
				return send()
			}
		})
		w.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, CollResult{
			Collective: j.name, Platform: platform.Name, Mode: "rankscale",
			Ranks: ranks, Size: j.size, Ops: int64(iters), Seconds: elapsed.Seconds(),
			Mops: float64(iters) / elapsed.Seconds() / 1e6,
		})
	}
	return out, nil
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
