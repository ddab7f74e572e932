package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"lci"
	"lci/internal/core"
	"lci/internal/topo"
)

// collWorldCfg is the lean runtime sizing used by every collective
// measurement.
func collWorldCfg(devices int) core.Config {
	return core.Config{NumDevices: devices, PacketsPerWorker: 256, PreRecvs: 64}
}

// timeCollective is one round of a collective series: a fresh world of
// ranks built from opts runs one collective iters times on every rank
// (after one warmup call, between alignment barriers), and rank 0's wall
// time for the measured phase is returned with the iteration count.
// makeBody builds each rank's per-iteration closure (its buffers are
// rank-private).
func timeCollective(ranks, iters int, opts []lci.WorldOption, makeBody func(rt *lci.Runtime) func() error) (int64, time.Duration, error) {
	w := lci.NewWorld(ranks, opts...)
	defer w.Close()
	var elapsed time.Duration
	err := w.Launch(func(rt *lci.Runtime) error {
		body := makeBody(rt)
		if err := body(); err != nil { // warmup
			return err
		}
		if err := rt.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := body(); err != nil {
				return err
			}
		}
		if err := rt.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 0 {
			elapsed = time.Since(t0)
		}
		return nil
	})
	return int64(iters), elapsed, err
}

// CollectiveLatency is the collectives' latency series on one platform,
// in million collectives per second (latency is the inverse): barrier,
// 8-byte allreduce and 64-KiB allreduce across ranks single-threaded
// goroutine-ranks. The 64-KiB point exercises the rendezvous protocol and
// the reduce+broadcast algorithm; the 8-byte point is the
// recursive-doubling fast path at power-of-two rank counts.
func CollectiveLatency(platform lci.Platform, ranks, iters int) []Workload {
	opts := []lci.WorldOption{lci.WithPlatform(platform), lci.WithRuntimeConfig(collWorldCfg(0))}
	big := max(iters/16, 4)
	var ws []Workload
	for _, j := range []struct {
		name        string
		size, iters int
	}{
		{"barrier", 0, iters},
		{"allreduce", 8, iters},
		{"allreduce", 64 << 10, big},
	} {
		ws = append(ws, workload("Mops", func() (int64, time.Duration, error) {
			return timeCollective(ranks, j.iters, opts, func(rt *lci.Runtime) func() error {
				if j.name == "barrier" {
					return func() error { return rt.Barrier() }
				}
				send := make([]byte, j.size)
				recv := make([]byte, j.size)
				for i := 0; i+8 <= j.size; i += 8 {
					binary.LittleEndian.PutUint64(send[i:], uint64(rt.Rank()+i))
				}
				return func() error { return rt.Allreduce(send, recv, lci.Int64, lci.OpSum) }
			})
		}, "%s %s default ranks=%d size=%d", j.name, platform.Name, ranks, j.size))
	}
	return ws
}

// CollectiveLocality measures barrier rate with every rank's driving
// thread registered on topology core 0 and the collective posted through
// its affinity: under LocalPlacement the pinned device is same-domain
// (no cross-domain penalty); under WorstPlacement every post and
// non-empty progress round pays the provider's CrossDomainNs charge.
// The ranks are the "threads" here — one driving goroutine per rank,
// which is what the paper's thread-scaling collectives look like from
// one node's perspective.
func CollectiveLocality(platform lci.Platform, t *topo.Topology, ranks, devices, iters int, worst bool) Workload {
	var place core.Placement = core.LocalPlacement{}
	mode := "numa-local"
	if worst {
		place = core.WorstPlacement{}
		mode = "numa-worst"
	}
	opts := []lci.WorldOption{
		lci.WithPlatform(platform),
		lci.WithRuntimeConfig(collWorldCfg(devices)),
		lci.WithTopology(t),
		lci.WithPlacement(place),
	}
	return workload("Mops", func() (int64, time.Duration, error) {
		return timeCollective(ranks, iters, opts, func(rt *lci.Runtime) func() error {
			a := rt.RegisterThreadAt(0) // same core on every rank: symmetric device indices
			return func() error { return rt.Barrier(lci.WithAffinity(a)) }
		})
	}, "barrier %s %s ranks=%d devices=%d domains=%d", platform.Name, mode, ranks, devices, t.Domains())
}

// CollCorrectness runs the bit-correctness matrix at one (ranks,
// threads) point: every rank hosts `threads` goroutines, each registered
// with its own affinity; a per-rank mutex serializes the rank's
// collective calls, and a shared sequence counter (not thread identity)
// derives every call's inputs — call order is what matches collectives
// across ranks. Each sequence step round-robins through broadcast,
// allreduce (both algorithms), reduce and allgather and checks results
// bit-exactly.
func CollCorrectness(platform lci.Platform, ranks, threads int) error {
	devices := 2
	if threads == 1 {
		devices = 1
	}
	w := lci.NewWorld(ranks, lci.WithPlatform(platform), lci.WithRuntimeConfig(collWorldCfg(devices)))
	defer w.Close()
	return w.Launch(func(rt *lci.Runtime) error {
		var mu sync.Mutex
		seq := 0
		errs := make([]error, threads)
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				a := rt.RegisterThread()
				for call := 0; call < 3; call++ {
					mu.Lock()
					s := seq
					seq++
					err := collStep(rt, a, ranks, s)
					mu.Unlock()
					if err != nil {
						errs[th] = fmt.Errorf("thread %d seq %d: %w", th, s, err)
						return
					}
				}
			}(th)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// collStep issues the s-th collective of a rank (under the rank's
// serialization lock) and verifies the result bit-exactly. Inputs depend
// only on (rank, s), never on the calling thread.
func collStep(rt *lci.Runtime, a *lci.Affinity, ranks, s int) error {
	opts := []lci.Option{lci.WithAffinity(a)}
	switch s % 4 {
	case 0: // broadcast, alternating algorithm and rendezvous sizes
		root := s % ranks
		size := 24
		if s%8 >= 4 {
			size = 16 << 10 // rendezvous
		}
		alg := []string{"", lci.CollFlat, lci.CollBinomial}[s%3]
		if alg != "" {
			opts = append(opts, lci.WithCollAlgorithm(alg))
		}
		buf := make([]byte, size)
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(s*31 + i)
		}
		if rt.Rank() == root {
			copy(buf, want)
		}
		if err := rt.Broadcast(buf, root, opts...); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != want[i] {
				return fmt.Errorf("broadcast byte %d mismatch", i)
			}
		}
	case 1: // allreduce sum, nonblocking handle, both algorithms
		alg := lci.CollReduceBcast
		if s%2 == 0 && ranks&(ranks-1) == 0 {
			alg = lci.CollRDouble
		}
		opts = append(opts, lci.WithCollAlgorithm(alg))
		send := make([]byte, 16)
		recv := make([]byte, 16)
		binary.LittleEndian.PutUint64(send, uint64(rt.Rank()+s))
		binary.LittleEndian.PutUint64(send[8:], uint64(rt.Rank()*2))
		h, err := rt.IAllreduce(send, recv, lci.Int64, lci.OpSum, opts...)
		if err != nil {
			return err
		}
		if err := h.Wait(); err != nil {
			return err
		}
		want0 := uint64(ranks*s + ranks*(ranks-1)/2)
		want1 := uint64(ranks * (ranks - 1))
		if binary.LittleEndian.Uint64(recv) != want0 || binary.LittleEndian.Uint64(recv[8:]) != want1 {
			return fmt.Errorf("allreduce mismatch: got %d,%d want %d,%d",
				binary.LittleEndian.Uint64(recv), binary.LittleEndian.Uint64(recv[8:]), want0, want1)
		}
	case 2: // reduce max at a rotating root
		root := (s + 1) % ranks
		send := make([]byte, 8)
		binary.LittleEndian.PutUint64(send, uint64(100+rt.Rank()))
		var recv []byte
		if rt.Rank() == root {
			recv = make([]byte, 8)
		}
		if err := rt.Reduce(send, recv, lci.Int64, lci.OpMax, root, opts...); err != nil {
			return err
		}
		if rt.Rank() == root {
			if got := binary.LittleEndian.Uint64(recv); got != uint64(100+ranks-1) {
				return fmt.Errorf("reduce max got %d want %d", got, 100+ranks-1)
			}
		}
	default: // allgather, alternating algorithm
		alg := []string{"", lci.CollRing, lci.CollFlat}[s%3]
		if alg != "" {
			opts = append(opts, lci.WithCollAlgorithm(alg))
		}
		send := make([]byte, 12)
		for i := range send {
			send[i] = byte(rt.Rank()*17 + i + s)
		}
		recv := make([]byte, ranks*12)
		if err := rt.Allgather(send, recv, opts...); err != nil {
			return err
		}
		for r := 0; r < ranks; r++ {
			for i := 0; i < 12; i++ {
				if recv[r*12+i] != byte(r*17+i+s) {
					return fmt.Errorf("allgather block %d byte %d mismatch", r, i)
				}
			}
		}
	}
	return nil
}

// CollOverlap proves the nonblocking handles actually overlap: rank 0
// starts an IAllreduce and then completes a p2p exchange with rank 1 —
// which only enters the allreduce after finishing its side of the p2p —
// while polling the handle. A blocking collective would deadlock here;
// completion of both is the overlap proof.
func CollOverlap(platform lci.Platform) error {
	w := lci.NewWorld(2, lci.WithPlatform(platform), lci.WithRuntimeConfig(collWorldCfg(0)))
	defer w.Close()
	const tag = 9001
	return w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		send := make([]byte, 8)
		recv := make([]byte, 8)
		binary.LittleEndian.PutUint64(send, uint64(rt.Rank()+1))
		p2pOut := []byte("ping-val")
		p2pIn := make([]byte, 8)
		rcnt := lci.NewCounter()
		verify := func() error {
			if got := binary.LittleEndian.Uint64(recv); got != 3 {
				return fmt.Errorf("rank %d: allreduce got %d want 3", rt.Rank(), got)
			}
			return nil
		}
		if rt.Rank() == 0 {
			h, err := rt.IAllreduce(send, recv, lci.Int64, lci.OpSum)
			if err != nil {
				return err
			}
			if err := h.Start(); err != nil {
				return err
			}
			// With the collective in flight, run the p2p exchange to
			// completion, polling the handle as we go.
			rst, err := rt.PostRecv(peer, p2pIn, tag, rcnt)
			if err != nil {
				return err
			}
			for {
				st, err := rt.PostSend(peer, p2pOut, tag, nil)
				if err != nil {
					return err
				}
				if !st.IsRetry() {
					break
				}
				rt.Progress()
			}
			for rst.IsPosted() && rcnt.Load() < 1 {
				h.Test()
				rt.Progress()
			}
			if string(p2pIn) != "pong-val" {
				return fmt.Errorf("rank 0: p2p payload %q", p2pIn)
			}
			if err := h.Wait(); err != nil {
				return err
			}
			return verify()
		}
		// Rank 1: finish the p2p exchange first — rank 0 can only serve it
		// because its allreduce is nonblocking — then join the collective.
		rst, err := rt.PostRecv(peer, p2pIn, tag, rcnt)
		if err != nil {
			return err
		}
		for rst.IsPosted() && rcnt.Load() < 1 {
			rt.Progress()
		}
		if string(p2pIn) != "ping-val" {
			return fmt.Errorf("rank 1: p2p payload %q", p2pIn)
		}
		copy(p2pOut, "pong-val")
		for {
			st, err := rt.PostSend(peer, p2pOut, tag, nil)
			if err != nil {
				return err
			}
			if !st.IsRetry() {
				break
			}
			rt.Progress()
		}
		if err := rt.Allreduce(send, recv, lci.Int64, lci.OpSum); err != nil {
			return err
		}
		return verify()
	})
}
