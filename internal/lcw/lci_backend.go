package lcw

import (
	"fmt"

	"lci"
	"lci/internal/comp"
	"lci/internal/core"
	"lci/internal/packet"
)

// workerSlabBytes caps the packet memory each registered worker
// pre-allocates: small-packet microbenchmark jobs keep the library's
// default quota, while 8 KiB application packets get 256 per worker
// instead of multiplying 8 MiB slabs by every thread and device.
const workerSlabBytes = 2 << 20

// packetsPerWorker is the per-worker packet quota for packetSize-byte
// packets: the slab cap above, but never fewer than twice the pre-posted
// receive depth. Every device keeps preRecvs packets posted and a rank
// has at least as many workers as devices, so the floor leaves sends
// half the pool; below it, large packets (MaxAM raised for big AMT
// faces) leave the pool to the receive window and every post retries
// forever.
func packetsPerWorker(packetSize, preRecvs int) int {
	return max(min(packet.DefaultPacketsPerWorker, workerSlabBytes/packetSize), 2*preRecvs)
}

// newLCIJob builds an LCW job over this repository's LCI library. Each
// rank registers one remote handler (the same handle on every rank,
// registration being symmetric) that hands arrivals to the rank's sink
// from inside device progress. The rank's runtime is built with a device
// pool sized by cfg.Devices (explicit pool) or cfg.Dedicated (one device
// per thread, the paper's fully dedicated layout); thread t pins to pool
// device t % devices and addresses the peer's same-index endpoint.
func newLCIJob(cfg Config, platform lci.Platform) (*Job, error) {
	devices := cfg.Devices
	if devices <= 0 {
		if cfg.Dedicated {
			devices = cfg.ThreadsPerRank
		} else {
			devices = 1
		}
	}
	if devices > cfg.ThreadsPerRank {
		return nil, fmt.Errorf("lcw: %d devices exceed %d threads per rank", devices, cfg.ThreadsPerRank)
	}
	maxAM, packetSize, preRecvs := cfg.sizing()
	coreCfg := core.Config{
		PacketSize:       packetSize,
		PreRecvs:         preRecvs,
		PacketsPerWorker: packetsPerWorker(packetSize, preRecvs),
		NumDevices:       devices,
		Topology:         cfg.Topology,
		Placement:        cfg.Placement,
	}
	world := lci.NewWorld(cfg.Ranks, lci.WithPlatform(platform), lci.WithRuntimeConfig(coreCfg))
	j := &Job{cfg: cfg}
	for r := 0; r < cfg.Ranks; r++ {
		rt, err := world.NewRuntime(r)
		if err != nil {
			return nil, err
		}
		c := &Comm{rank: r, nranks: cfg.Ranks, maxAM: maxAM, rt: rt}
		handler := rt.RegisterHandler(func(st lci.Status) { c.sink(st.Rank, st.Buffer) })
		for t := 0; t < cfg.ThreadsPerRank; t++ {
			th := &lciThread{
				rt:      rt,
				idx:     t,
				sendCnt: comp.NewCounter(),
				recvCnt: comp.NewCounter(),
			}
			if coreCfg.Topology.Single() {
				th.worker = rt.RegisterWorker()
				th.dev = rt.Device(t % devices)
			} else {
				// Thread t runs on virtual core t (wrapping over the
				// topology's cores, like RegisterThread, so jobs with more
				// threads than cores oversubscribe instead of silently
				// losing their domain): the placement policy resolves its
				// domain and picks the device; its worker slab binds to
				// the same domain. Every rank registers in thread order,
				// so the layout is symmetric and device indices pair up
				// across ranks as before.
				aff := rt.RegisterThreadAt(t % coreCfg.Topology.NumCores())
				th.worker = aff.Worker()
				th.dev = aff.Device()
			}
			th.opts = core.Options{
				Device: th.dev, Worker: th.worker, RComp: handler,
				RemoteDevice: th.dev.Index(), RemoteDeviceSet: true,
			}
			c.threads = append(c.threads, th)
		}
		j.comms = append(j.comms, c)
	}
	return j, nil
}

type lciThread struct {
	rt            *lci.Runtime
	idx           int
	dev           *lci.Device
	worker        *packet.Worker
	sendCnt       *comp.Counter // completed two-sided sends
	recvCnt       *comp.Counter
	sendLocalDone int64 // sends completed inline (inject path)
	recvLocalDone int64

	// opts is the thread's posting-option struct, built once, so the
	// per-message path posts straight through core without re-applying
	// options on every call.
	opts core.Options

	// The record path (set by Records): this thread's aggregation handle
	// on its own device column. Progress then polls the aggregator.
	ag *lci.Aggregator
	at *lci.AggThread
}

func (t *lciThread) SendAM(dst int, data []byte) bool {
	st, err := t.rt.Core().PostAM(dst, data, t.idx, nil, t.opts)
	if err != nil {
		panic(fmt.Sprintf("lcw/lci: PostAM: %v", err))
	}
	return !st.IsRetry()
}

func (t *lciThread) Progress() int {
	if t.at != nil {
		// Polling through the aggregator progresses the same device and
		// also advances the column's age-flush epoch and retries batches
		// the network refused.
		return t.ag.Poll(t.at)
	}
	return t.dev.ProgressW(t.worker)
}

func (t *lciThread) Send(dst int, data []byte) bool {
	st, err := t.rt.Core().PostSend(dst, data, t.idx, t.sendCnt, t.opts)
	if err != nil {
		panic(fmt.Sprintf("lcw/lci: PostSend: %v", err))
	}
	if st.IsRetry() {
		return false
	}
	if st.IsDone() {
		t.sendLocalDone++
	}
	return true
}

func (t *lciThread) SendsDone() int64 { return t.sendCnt.Load() + t.sendLocalDone }

func (t *lciThread) Recv(src int, buf []byte) bool {
	st, err := t.rt.Core().PostRecv(src, buf, t.idx, t.recvCnt, t.opts)
	if err != nil {
		panic(fmt.Sprintf("lcw/lci: PostRecv: %v", err))
	}
	if st.IsRetry() {
		return false
	}
	if st.IsDone() {
		t.recvLocalDone++
	}
	return true
}

func (t *lciThread) RecvsDone() int64 { return t.recvCnt.Load() + t.recvLocalDone }
