package bench

import (
	"fmt"
	"sync"
	"time"

	"lci/internal/base"
	"lci/internal/comp"
	"lci/internal/matching"
	"lci/internal/packet"
)

// ResourceThroughput measures one resource's throughput with the given
// thread count, in million op-pairs per second: every thread performs
// iters op-pairs on a single shared instance (a completion-queue
// push/pop on the growable or the fixed-capacity queue, a
// matching-engine send+recv insert pair, or a packet-pool get/put),
// reproducing Figure 6.
func ResourceThroughput(resource string, threads, iters int) Workload {
	return workload("Mops", func() (int64, time.Duration, error) {
		var body func(thread int)
		switch resource {
		case "cq", "cq-fixed":
			q := comp.NewQueue()
			if resource == "cq-fixed" {
				q = comp.NewFixedQueue(1 << 16)
			}
			body = func(thread int) {
				st := base.Status{Rank: thread}
				for i := 0; i < iters; i++ {
					q.Signal(st)
					for {
						if _, ok := q.Pop(); ok {
							break
						}
					}
				}
			}
		case "matching":
			eng := matching.New(matching.DefaultBuckets)
			body = func(thread int) {
				val := &struct{ x int }{thread}
				for i := 0; i < iters; i++ {
					// One op pair: a send insert matched by a recv insert on a
					// thread-unique key (no cross-thread matches, as in the
					// paper's isolated-resource setup).
					key := matching.MakeKey(thread, i, base.MatchRankTag)
					eng.Insert(key, matching.Send, val)
					if _, ok := eng.Insert(key, matching.Recv, val); !ok {
						panic("bench: matching engine failed to match")
					}
				}
			}
		case "packet":
			pool := packet.NewPool(packet.DefaultPacketSize, 64)
			workers := make([]*packet.Worker, threads)
			for i := range workers {
				workers[i] = pool.RegisterWorker()
			}
			body = func(thread int) {
				w := workers[thread]
				for i := 0; i < iters; i++ {
					pkt := w.Get()
					if pkt == nil {
						panic("bench: packet pool unexpectedly empty")
					}
					w.Put(pkt)
				}
			}
		default:
			return 0, 0, fmt.Errorf("bench: unknown resource %q (want cq, cq-fixed, matching, packet)", resource)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				<-start
				body(t)
			}(t)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		return int64(threads) * int64(iters), time.Since(t0), nil
	}, "%s threads=%d", resource, threads)
}
