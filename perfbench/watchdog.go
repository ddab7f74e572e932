package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// watchdog bounds a run's wall time. When the deadline passes it dumps
// every goroutine's stack and the last telemetry snapshot of both ranks,
// prints a failed result and exits, instead of hanging until an outer
// timeout kills the process without a word.
type watchdog struct {
	mu    sync.Mutex
	inst  instance
	timer *time.Timer
}

// watchdogLimit is the run's deadline: the timed phase with half again
// as much slack, plus a minute for set-up, warm-up and the host probes.
// At maxSeconds it is 150 s, below three minutes.
func watchdogLimit(seconds float64) time.Duration {
	return time.Duration((seconds*1.5 + 60) * float64(time.Second))
}

func startWatchdog(cfg runConfig, stdout, stderr io.Writer) *watchdog {
	w := &watchdog{}
	limit := watchdogLimit(cfg.seconds)
	w.timer = time.AfterFunc(limit, func() { w.fire(cfg, limit, stdout, stderr) })
	return w
}

// watch names the world whose telemetry a firing watchdog dumps.
func (w *watchdog) watch(in instance) {
	w.mu.Lock()
	w.inst = in
	w.mu.Unlock()
}

func (w *watchdog) stop() { w.timer.Stop() }

func (w *watchdog) fire(cfg runConfig, limit time.Duration, stdout, stderr io.Writer) {
	fmt.Fprintf(stderr, "perfbench: watchdog: %s did not finish within %v; goroutine stacks follow\n", cfg.workload, limit)
	buf := make([]byte, 8<<20)
	stderr.Write(buf[:runtime.Stack(buf, true)])
	w.mu.Lock()
	in := w.inst
	w.mu.Unlock()
	if in != nil {
		in.dump(stderr)
	}
	out, _ := json.Marshal(result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
	fmt.Fprintln(stdout, string(out))
	os.Exit(3)
}
