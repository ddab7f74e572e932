package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// checkHost is the host-capacity guard's refusal: the worker goroutines
// spin, so they must never outnumber the cores Go schedules on, and
// GOMAXPROCS must be the host's core count so runs on one host compare.
func checkHost() error {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g != n {
		return fmt.Errorf("GOMAXPROCS is %d but nproc is %d", g, n)
	}
	if nThreads > n {
		return fmt.Errorf("%d spinning worker goroutines but only %d cores", nThreads, n)
	}
	return nil
}

// hostReport records how much CPU the host gave the run: a fixed CPU
// loop timed on one and then two goroutines before and after the run,
// the steal time the kernel reports over it, and process CPU time per
// wall second of the timed phase.
type hostReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Loop1Pre   float64 `json:"loop1_pre_ms"`
	Loop2Pre   float64 `json:"loop2_pre_ms"`
	Loop1Post  float64 `json:"loop1_post_ms"`
	Loop2Post  float64 `json:"loop2_post_ms"`
	StealFrac  float64 `json:"steal_frac"`
	CPUPerWall float64 `json:"cpu_per_wall"`
	// Contended flags a run where the host took CPU away: two goroutines
	// ran the loop much slower than one, or the kernel reported steal.
	Contended bool `json:"host_contended"`

	steal0 int64
	t0     time.Time
}

// contendedLoopRatio and contendedSteal are the thresholds for flagging
// a run as contended.
const (
	contendedLoopRatio = 1.3
	contendedSteal     = 0.02
)

func probeHost() *hostReport {
	h := &hostReport{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	h.Loop1Pre, h.Loop2Pre = cpuLoops()
	h.steal0 = readSteal()
	h.t0 = time.Now()
	return h
}

// finish completes the report once the timed phases are over; wall and
// cpu are the timed phases' wall time and process CPU time.
func (h *hostReport) finish(wall, cpu time.Duration) {
	elapsed := time.Since(h.t0)
	if st := readSteal(); st >= 0 && h.steal0 >= 0 && elapsed > 0 {
		// /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
		h.StealFrac = float64(st-h.steal0) / 100 / (elapsed.Seconds() * float64(h.NumCPU))
	}
	h.Loop1Post, h.Loop2Post = cpuLoops()
	if wall > 0 {
		h.CPUPerWall = cpu.Seconds() / wall.Seconds()
	}
	h.Contended = h.Loop2Pre > contendedLoopRatio*h.Loop1Pre ||
		h.Loop2Post > contendedLoopRatio*h.Loop1Post || h.StealFrac > contendedSteal
}

// cpuLoops times a fixed CPU loop on one goroutine, then on two at once,
// in milliseconds.
func cpuLoops() (one, two float64) {
	t0 := time.Now()
	spinWork()
	one = float64(time.Since(t0).Microseconds()) / 1000
	var wg sync.WaitGroup
	t0 = time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spinWork()
		}()
	}
	wg.Wait()
	two = float64(time.Since(t0).Microseconds()) / 1000
	return one, two
}

var spinSink uint64

func spinWork() {
	x := uint64(1)
	for i := 0; i < 4_000_000; i++ {
		x = splitmix(x)
	}
	if x == 0 {
		spinSink++ // keeps the loop from being optimised away
	}
}

// readSteal returns the host's cumulative steal ticks from /proc/stat,
// or -1 when they cannot be read.
func readSteal() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) > 8 && fs[0] == "cpu" {
			v, err := strconv.ParseInt(fs[8], 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
