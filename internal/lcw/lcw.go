// Package lcw is the Lightweight Communication Wrapper of the paper's
// §6.2: a thin uniform layer over LCI, the MPI-like baseline (with and
// without VCIs) and the GASNet-EX-like baseline. It is the one client
// layer of the repository: the microbenchmarks run their identical
// benchmark code over it, and the application mini-apps (k-mer counting,
// the AMT code) run their traffic through it.
//
// LCW exposes active messages and nonblocking send-receive. Each
// application thread holds a Thread handle; thread i of one rank talks to
// thread i of the peer rank. Resource layout follows the paper's two
// thread-based modes:
//
//   - dedicated: one LCI device / one MPICH VCI per thread;
//   - shared: one set of resources for the whole rank.
//
// GASNet supports only the shared mode (its AM progress semantics
// preclude resource replication, §2.2), and only active messages (LCW's
// send-receive is not implemented for GASNet, §6.2 — it is absent from
// the bandwidth figure for the same reason).
//
// Delivery contract: every arriving active message is handed to the
// rank's sink (Comm.SetSink) from inside Thread.Progress — an LCI remote
// handler, a GASNet medium-AM handler, or an MPI pre-posted receive
// completing. The payload is valid only during the sink call (the GASNet
// medium-AM rule); the sink must not block and must be safe to call from
// any of the rank's threads at once.
package lcw

import (
	"errors"
	"fmt"
	"sync"

	"lci"
	"lci/internal/core"
	"lci/internal/topo"
)

// Kind selects the wrapped communication library.
type Kind int

const (
	// LCI is this repository's library.
	LCI Kind = iota
	// MPI is the MPI-like baseline with one VCI (standard MPI).
	MPI
	// MPIX is the MPI-like baseline with the VCI extension.
	MPIX
	// GASNET is the GASNet-EX-like baseline (AM only, shared only).
	GASNET
)

func (k Kind) String() string {
	switch k {
	case LCI:
		return "lci"
	case MPI:
		return "mpi"
	case MPIX:
		return "mpix"
	case GASNET:
		return "gasnet"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config describes one LCW job.
type Config struct {
	Kind           Kind
	Ranks          int
	ThreadsPerRank int
	Dedicated      bool // dedicated resources (device/VCI per thread)
	// Devices sizes the LCI backend's device pool explicitly (LCI only):
	// threads pin to device (thread index % Devices), so Devices ==
	// ThreadsPerRank is the paper's fully dedicated layout and smaller
	// values share each device among ThreadsPerRank/Devices threads. Zero
	// keeps the Dedicated-flag behavior (one device per thread when
	// Dedicated, one for the rank otherwise).
	Devices int
	// MaxAM bounds AM payloads the job will carry (default DefaultMaxAM).
	// Benchmarks with small fixed-size messages set it low: every backend
	// sizes its receive packets from it, which keeps the pre-posted buffer
	// working set cache-resident instead of rotating through megabytes of
	// cold 8 KiB buffers for 8-byte payloads.
	MaxAM int
	// PreRecvs is the pre-posted receive depth per device/VCI/endpoint
	// (default 128), applied identically to every backend.
	PreRecvs int
	// Topology attaches a host NUMA topology to the LCI backend's
	// runtimes (LCI-only): pool devices bind to domains, thread t
	// registers on virtual core t so its domain resolves from the
	// topology's core map, and the provider sims charge the cross-domain
	// penalty — which makes placement quality measurable. Nil keeps the
	// topology-oblivious layout.
	Topology *topo.Topology
	// Placement selects the placement policy used with Topology (default
	// core.LocalPlacement; core.WorstPlacement pins every thread to the
	// farthest domain's devices, the locality gate's adversary).
	Placement core.Placement
}

// DefaultMaxAM is the AM payload ceiling of a Config that leaves MaxAM
// zero: an 8 KiB wire packet less its header room.
const DefaultMaxAM = 8192 - 64

// AppConfig returns the job layout the application mini-apps (k-mer
// counting, the AMT code) run on: a device (LCI) or VCI (MPIX) per thread
// where the library has one, shared resources otherwise (MPI, GASNet),
// and a pre-posted receive depth of 64 per device/VCI/endpoint — the
// library defaults target microbenchmark packet volumes.
func AppConfig(kind Kind, ranks, threads int) Config {
	return Config{
		Kind: kind, Ranks: ranks, ThreadsPerRank: threads,
		Dedicated: kind == LCI || kind == MPIX,
		PreRecvs:  64,
	}
}

// sizing resolves the buffer knobs every backend shares: the AM payload
// ceiling, the wire packet size that carries it (header room included,
// power of two, minimum 256), and the pre-posted receive depth.
func (c Config) sizing() (maxAM, packetSize, preRecvs int) {
	maxAM = c.MaxAM
	if maxAM <= 0 {
		maxAM = DefaultMaxAM
	}
	packetSize = 256
	for packetSize < maxAM+64 {
		packetSize <<= 1
	}
	preRecvs = c.PreRecvs
	if preRecvs <= 0 {
		preRecvs = 128
	}
	return maxAM, packetSize, preRecvs
}

// Thread is one application thread's communication handle. A handle is
// used by one goroutine at a time: its send bookkeeping and (on MPI) its
// receive pool are unlocked, so handing a thread index to another
// goroutine must be ordered by the caller (a WaitGroup, a channel).
// Different handles of one rank may be used concurrently.
type Thread interface {
	// SendAM posts an active message carrying data to rank dst; it lands
	// in the resources of dst's same-index thread. It reports false when
	// the post must be retried after Progress. Payloads up to the Comm's
	// MaxAM are accepted on every backend.
	SendAM(dst int, data []byte) bool
	// Progress advances this thread's resources, hands each arrival to
	// the rank's sink, and reports the work it found: the arrivals it
	// delivered (MPI, GASNet) or the completions the LCI device round
	// handled (arrivals and local send completions alike). Zero means
	// the call found nothing to do.
	Progress() int
	// Send posts a nonblocking two-sided send to the same-index thread
	// of dst; false = retry.
	Send(dst int, data []byte) bool
	// SendsDone reports how many sends have completed locally.
	SendsDone() int64
	// Recv posts a nonblocking receive from the same-index thread of
	// src; false = retry.
	Recv(src int, buf []byte) bool
	// RecvsDone reports how many receives have completed.
	RecvsDone() int64
}

// Send is the blocking active-message send the applications use: it
// posts data to dst, progressing th until the post is accepted.
func Send(th Thread, dst int, data []byte) {
	for !th.SendAM(dst, data) {
		th.Progress()
	}
}

// Comm is one rank's handle: its threads, its sink, and (on LCI) its
// runtime.
type Comm struct {
	rank, nranks int
	maxAM        int
	threads      []Thread
	// sink receives every arrival; set by SetSink before any thread of
	// this rank progresses, read by the backends' delivery paths.
	sink func(src int, data []byte)
	// rt is the LCI backend's runtime (nil for the baselines): Close
	// releases it and Records builds its aggregator over it.
	rt *lci.Runtime
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// NumRanks returns the job size.
func (c *Comm) NumRanks() int { return c.nranks }

// Thread returns thread i's handle.
func (c *Comm) Thread(i int) Thread { return c.threads[i] }

// MaxAM returns the largest SendAM payload every backend accepts.
func (c *Comm) MaxAM() int { return c.maxAM }

// SetSink registers the function every arriving active message is
// delivered to (see the package delivery contract). Call it once, before
// any thread of this rank sends or progresses.
func (c *Comm) SetSink(fn func(src int, data []byte)) { c.sink = fn }

// Close releases the rank's resources.
func (c *Comm) Close() error {
	if c.rt != nil {
		return c.rt.Close()
	}
	return nil
}

// Job is a whole simulated run: one Comm per rank over one fabric.
type Job struct {
	cfg   Config
	comms []*Comm
}

// Comm returns rank's communication handle.
func (j *Job) Comm(rank int) *Comm { return j.comms[rank] }

// Config returns the job configuration.
func (j *Job) Config() Config { return j.cfg }

// Launch runs fn once per rank, each on its own goroutine, and returns
// when every call has returned, joining their errors.
func (j *Job) Launch(fn func(c *Comm) error) error {
	errs := make([]error, len(j.comms))
	var wg sync.WaitGroup
	for r, c := range j.comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close closes every rank's Comm.
func (j *Job) Close() error {
	var firstErr error
	for _, c := range j.comms {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
