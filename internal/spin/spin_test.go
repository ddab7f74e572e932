package spin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDelayZeroAndNegative(t *testing.T) {
	Delay(0)
	Delay(-5) // must be no-ops, not hangs
}

func TestDelayRoughlyCalibrated(t *testing.T) {
	// The calibration only needs to be order-of-magnitude right: a request
	// for 1ms of spinning should take between 0.1ms and 100ms even on a
	// noisy shared machine.
	start := time.Now()
	Delay(1_000_000)
	got := time.Since(start)
	if got < 100*time.Microsecond || got > 100*time.Millisecond {
		t.Fatalf("Delay(1ms) took %v, calibration badly off", got)
	}
}

func TestMutexBasic(t *testing.T) {
	var m Mutex
	if !m.TryLock() {
		t.Fatal("TryLock on fresh mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()
	m.Lock()
	m.Unlock()
}

func TestMutexUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var m Mutex
	m.Unlock()
}

func TestMutexMutualExclusion(t *testing.T) {
	var m Mutex
	var counter int
	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates => broken lock)", counter, goroutines*iters)
	}
}

func TestMutexContendedDiagnostic(t *testing.T) {
	var m Mutex
	m.Lock()
	done := make(chan struct{})
	go func() {
		m.Lock()
		m.Unlock()
		close(done)
	}()
	// Hold the lock until the contender has registered its wait, however
	// late the scheduler runs it.
	for deadline := time.Now().Add(10 * time.Second); atomic.LoadInt32(&m.hold) == 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	m.Unlock()
	<-done
	if !m.Contended() {
		t.Error("expected contention to be recorded")
	}
}
