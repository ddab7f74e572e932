// Package amt implements the AMT (Asynchronous Many-Task) application
// benchmark of the paper's §6.4: an Octo-Tiger-like astrophysics mini-app
// over a task-parallel runtime whose communication layer is pluggable
// (LCI / MPI / MPI+VCIs), mirroring the HPX parcelport integration.
//
// Octo-Tiger itself (adaptive octrees + fast multipole methods over HPX)
// is far larger than any reproduction can carry; what Figure 8 measures
// is how the communication library sustains an AMT's traffic: many
// concurrent medium-size transfers (subgrid boundary exchange) plus
// fine-grained control messages (reductions), issued and progressed by
// every worker thread. This mini-app reproduces exactly that pattern: a
// full octree of fixed-size subgrids distributed in Morton order, a
// per-step 6-face halo exchange, a conservative 7-point stencil update
// ("rotating star" density relaxation), and a global dt-style reduction
// per step. Work is scheduled by a shared task counter so idle workers
// both steal leaves and progress the network — the all-worker model of
// the paper's HPX runs.
package amt

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lci/internal/lcw"
)

// Config parameterizes one run.
type Config struct {
	Depth    int // octree depth: 8^Depth leaves (default 2 -> 64 leaves)
	GridSize int // subgrid edge length S (cells per leaf = S^3, default 12)
	Steps    int // simulation steps (default 10)
	Threads  int // worker threads per rank
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Depth: 2, GridSize: 12, Steps: 10, Threads: 4}
}

// Result summarizes one rank's run.
type Result struct {
	Elapsed     time.Duration
	TimePerStep time.Duration
	// Mass is this rank's share of the conserved total density; summed
	// across ranks it must stay constant across steps (correctness
	// invariant).
	Mass float64
	// Checksum is an order-independent digest of the final state for
	// cross-backend comparison.
	Checksum float64
	Leaves   int
	// BytesSent counts face payload bytes shipped remotely.
	BytesSent int64
}

// Message kinds.
const (
	kindFace    = 1 + iota // face halo data
	kindDtUp               // per-rank dt contribution -> rank 0
	kindDtBcast            // rank 0 broadcast: step may advance
)

// face directions: -x,+x,-y,+y,-z,+z
var faceDirs = [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}

// leaf is one octree leaf's state.
type leaf struct {
	idx     int // global Morton index
	grid    []float64
	next    []float64
	faces   [2][6][]float64 // halo buffers, double-buffered by step parity
	arrived [2]atomic.Int32 // faces arrived per parity
}

type app struct {
	cfg    Config
	c      *lcw.Comm
	rank   int
	n      int
	dim    int // leaves per axis = 2^Depth
	total  int // total leaves
	leaves []*leaf
	byIdx  map[int]*leaf

	faceBytes int64

	// per-step reduction state
	dtArrived  [2]atomic.Int32 // rank 0: contributions received (parity)
	dtValue    [2]uint64       // rank 0: running max bits (atomic via CAS)
	bcastSeen  [2]atomic.Int32 // non-zero when the parity's broadcast arrived
	stepParity int
}

// owner maps a Morton leaf index to its owning rank (block partition in
// Morton order, the space-filling-curve distribution Octo-Tiger uses).
func owner(idx, total, nranks int) int {
	return idx * nranks / total
}

// mortonEncode interleaves 3 coordinates (enough bits for Depth <= 10).
func mortonEncode(x, y, z, depth int) int {
	m := 0
	for b := 0; b < depth; b++ {
		m |= (x >> b & 1) << (3*b + 0)
		m |= (y >> b & 1) << (3*b + 1)
		m |= (z >> b & 1) << (3*b + 2)
	}
	return m
}

func mortonDecode(m, depth int) (x, y, z int) {
	for b := 0; b < depth; b++ {
		x |= (m >> (3*b + 0) & 1) << b
		y |= (m >> (3*b + 1) & 1) << b
		z |= (m >> (3*b + 2) & 1) << b
	}
	return
}

// JobConfig returns the lcw job that runs cfg over kind on ranks ranks:
// the application layout (lcw.AppConfig) with the AM ceiling raised to
// one face message when the grid's faces exceed the default, so every
// backend sizes its packets for them.
func JobConfig(kind lcw.Kind, ranks int, cfg Config) lcw.Config {
	jc := lcw.AppConfig(kind, ranks, cfg.Threads)
	if face := faceBytes(cfg.GridSize); face > lcw.DefaultMaxAM {
		jc.MaxAM = face
	}
	return jc
}

// Run executes the mini-app on this rank, worker thread t using
// c.Thread(t) (cfg.Threads must not exceed the Comm's threads); all ranks
// call Run with the same configuration.
func Run(c *lcw.Comm, cfg Config) (Result, error) {
	if cfg.Depth < 1 || cfg.Depth > 6 {
		return Result{}, fmt.Errorf("amt: depth %d out of range [1,6]", cfg.Depth)
	}
	if cfg.GridSize < 4 {
		return Result{}, fmt.Errorf("amt: grid size %d too small", cfg.GridSize)
	}
	if cfg.Threads < 1 {
		return Result{}, fmt.Errorf("amt: need at least one thread")
	}
	if face := faceBytes(cfg.GridSize); face > c.MaxAM() {
		// A Comm built without JobConfig for this grid.
		return Result{}, fmt.Errorf("amt: %d-byte face message exceeds the %d-byte AM limit", face, c.MaxAM())
	}
	a := &app{
		cfg: cfg, c: c, rank: c.Rank(), n: c.NumRanks(),
		dim: 1 << cfg.Depth, byIdx: make(map[int]*leaf),
	}
	a.total = a.dim * a.dim * a.dim
	if a.total < a.n {
		return Result{}, fmt.Errorf("amt: %d leaves < %d ranks", a.total, a.n)
	}
	a.initLeaves()
	c.SetSink(a.sink)

	start := time.Now()
	for step := 0; step < cfg.Steps; step++ {
		a.runStep(step)
	}
	elapsed := time.Since(start)

	res := Result{
		Elapsed:     elapsed,
		TimePerStep: elapsed / time.Duration(cfg.Steps),
		Leaves:      len(a.leaves),
		BytesSent:   atomic.LoadInt64(&a.faceBytes),
	}
	for _, lf := range a.leaves {
		for _, v := range lf.grid {
			res.Mass += v
		}
		for i, v := range lf.grid {
			res.Checksum += v * float64(lf.idx*31+i%17+1)
		}
	}
	return res, nil
}

// initLeaves builds this rank's leaves with the "rotating star" initial
// density: a Gaussian blob offset from the center so the diffusion front
// is asymmetric across rank boundaries (load imbalance, like the real
// scenario's star).
func (a *app) initLeaves() {
	S := a.cfg.GridSize
	for idx := 0; idx < a.total; idx++ {
		if owner(idx, a.total, a.n) != a.rank {
			continue
		}
		lf := &leaf{idx: idx, grid: make([]float64, S*S*S), next: make([]float64, S*S*S)}
		for p := 0; p < 2; p++ {
			for f := 0; f < 6; f++ {
				lf.faces[p][f] = make([]float64, S*S)
			}
		}
		lx, ly, lz := mortonDecode(idx, a.cfg.Depth)
		world := float64(a.dim * S)
		cx, cy, cz := world*0.4, world*0.5, world*0.6 // offset star center
		sigma := world / 6
		for x := 0; x < S; x++ {
			for y := 0; y < S; y++ {
				for z := 0; z < S; z++ {
					gx := float64(lx*S + x)
					gy := float64(ly*S + y)
					gz := float64(lz*S + z)
					d2 := (gx-cx)*(gx-cx) + (gy-cy)*(gy-cy) + (gz-cz)*(gz-cz)
					lf.grid[(x*S+y)*S+z] = math.Exp(-d2 / (2 * sigma * sigma))
				}
			}
		}
		a.leaves = append(a.leaves, lf)
		a.byIdx[idx] = lf
	}
}

// neighborOf returns the Morton index of the face-f neighbor of leaf idx
// (periodic boundary).
func (a *app) neighborOf(idx, f int) int {
	x, y, z := mortonDecode(idx, a.cfg.Depth)
	d := faceDirs[f]
	x = (x + d[0] + a.dim) % a.dim
	y = (y + d[1] + a.dim) % a.dim
	z = (z + d[2] + a.dim) % a.dim
	return mortonEncode(x, y, z, a.cfg.Depth)
}

// extractFace copies leaf lf's face f into out (the plane adjacent to the
// neighbor in direction f).
func (a *app) extractFace(lf *leaf, f int, out []float64) {
	S := a.cfg.GridSize
	get := func(x, y, z int) float64 { return lf.grid[(x*S+y)*S+z] }
	k := 0
	for i := 0; i < S; i++ {
		for j := 0; j < S; j++ {
			switch f {
			case 0:
				out[k] = get(0, i, j)
			case 1:
				out[k] = get(S-1, i, j)
			case 2:
				out[k] = get(i, 0, j)
			case 3:
				out[k] = get(i, S-1, j)
			case 4:
				out[k] = get(i, j, 0)
			case 5:
				out[k] = get(i, j, S-1)
			}
			k++
		}
	}
}

// opposite face index (the neighbor stores our face in the mirrored slot).
func opposite(f int) int { return f ^ 1 }

// sink handles one arrived parcel. Thread-safe.
func (a *app) sink(src int, payload []byte) {
	switch payload[0] {
	case kindFace:
		parity := int(payload[1])
		face := int(payload[2])
		dstLeaf := int(binary.LittleEndian.Uint32(payload[4:]))
		lf := a.byIdx[dstLeaf]
		if lf == nil {
			panic(fmt.Sprintf("amt: face for foreign leaf %d", dstLeaf))
		}
		buf := lf.faces[parity][face]
		body := payload[8:]
		for i := range buf {
			buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
		}
		lf.arrived[parity].Add(1)
	case kindDtUp:
		parity := int(payload[1])
		bits := binary.LittleEndian.Uint64(payload[8:])
		v := math.Float64frombits(bits)
		a.dtMax(parity, v)
		a.dtArrived[parity].Add(1)
	case kindDtBcast:
		parity := int(payload[1])
		a.bcastSeen[parity].Add(1)
	default:
		panic(fmt.Sprintf("amt: unknown parcel kind %d", payload[0]))
	}
}

// dtMax folds v into the parity's running maximum with a CAS loop.
func (a *app) dtMax(parity int, v float64) {
	addr := &a.dtValue[parity]
	for {
		old := atomic.LoadUint64(addr)
		if math.Float64frombits(old) >= v {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(v)) {
			return
		}
	}
}

// faceBytes is the wire size of one face message: an 8-byte header and
// S*S float64 halo values.
func faceBytes(S int) int { return 8 + S*S*8 }

// sendFace ships leaf lf's face f for the given parity to its neighbor
// (or delivers it locally).
func (a *app) sendFace(lf *leaf, f, parity, tid int, scratch []float64) {
	nIdx := a.neighborOf(lf.idx, f)
	nOwner := owner(nIdx, a.total, a.n)
	S := a.cfg.GridSize
	a.extractFace(lf, f, scratch)
	if nOwner == a.rank {
		dst := a.byIdx[nIdx]
		copy(dst.faces[parity][opposite(f)], scratch)
		dst.arrived[parity].Add(1)
		return
	}
	payload := make([]byte, faceBytes(S))
	payload[0] = kindFace
	payload[1] = byte(parity)
	payload[2] = byte(opposite(f))
	binary.LittleEndian.PutUint32(payload[4:], uint32(nIdx))
	for i, v := range scratch {
		binary.LittleEndian.PutUint64(payload[8+i*8:], math.Float64bits(v))
	}
	lcw.Send(a.c.Thread(tid), nOwner, payload)
	atomic.AddInt64(&a.faceBytes, int64(len(payload)))
}

// compute applies the conservative 7-point diffusion stencil to lf using
// the parity's halo faces and returns the local max delta (the "dt"
// contribution).
func (a *app) compute(lf *leaf, parity int) float64 {
	S := a.cfg.GridSize
	const alpha = 0.1
	get := func(x, y, z int) float64 { return lf.grid[(x*S+y)*S+z] }
	halo := func(f, i, j int) float64 { return lf.faces[parity][f][i*S+j] }
	maxDelta := 0.0
	for x := 0; x < S; x++ {
		for y := 0; y < S; y++ {
			for z := 0; z < S; z++ {
				c := get(x, y, z)
				var xm, xp, ym, yp, zm, zp float64
				if x == 0 {
					xm = halo(0, y, z)
				} else {
					xm = get(x-1, y, z)
				}
				if x == S-1 {
					xp = halo(1, y, z)
				} else {
					xp = get(x+1, y, z)
				}
				if y == 0 {
					ym = halo(2, x, z)
				} else {
					ym = get(x, y-1, z)
				}
				if y == S-1 {
					yp = halo(3, x, z)
				} else {
					yp = get(x, y+1, z)
				}
				if z == 0 {
					zm = halo(4, x, y)
				} else {
					zm = get(x, y, z-1)
				}
				if z == S-1 {
					zp = halo(5, x, y)
				} else {
					zp = get(x, y, z+1)
				}
				nv := c + alpha*(xm+xp+ym+yp+zm+zp-6*c)
				lf.next[(x*S+y)*S+z] = nv
				if d := math.Abs(nv - c); d > maxDelta {
					maxDelta = d
				}
			}
		}
	}
	lf.grid, lf.next = lf.next, lf.grid
	return maxDelta
}

// parallelFor runs fn(i, tid) for i in [0, n) across the worker pool,
// serving the transport while waiting — idle workers progress the
// network, the all-worker model.
func (a *app) parallelFor(n int, fn func(i, tid int)) {
	var next atomic.Int64
	var done atomic.Int64
	var wg sync.WaitGroup
	for tid := 0; tid < a.cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(i, tid)
				done.Add(1)
			}
		}(tid)
	}
	wg.Wait()
	_ = done.Load()
}

// runStep executes one simulation step.
func (a *app) runStep(step int) {
	parity := step & 1
	S := a.cfg.GridSize

	// Phase 1: every leaf ships its six faces (tasks over the pool).
	a.parallelFor(len(a.leaves), func(i, tid int) {
		scratch := make([]float64, S*S)
		lf := a.leaves[i]
		for f := 0; f < 6; f++ {
			a.sendFace(lf, f, parity, tid, scratch)
		}
	})

	// Wait for all halos, serving the network from every thread.
	a.waitAll(func() bool {
		for _, lf := range a.leaves {
			if lf.arrived[parity].Load() < 6 {
				return false
			}
		}
		return true
	})

	// Phase 2: compute all leaves; fold local dt.
	var localDt uint64
	var dtMu sync.Mutex
	a.parallelFor(len(a.leaves), func(i, tid int) {
		d := a.compute(a.leaves[i], parity)
		dtMu.Lock()
		if d > math.Float64frombits(localDt) {
			localDt = math.Float64bits(d)
		}
		dtMu.Unlock()
	})
	for _, lf := range a.leaves {
		lf.arrived[parity].Store(0) // re-arm this parity for step+2
	}

	// Phase 3: dt reduction to rank 0 and broadcast.
	a.reduceDt(parity, math.Float64frombits(localDt))
}

// waitAll serves the transport from every worker thread until pred holds.
func (a *app) waitAll(pred func() bool) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for tid := 1; tid < a.cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for !stop.Load() {
				if a.c.Thread(tid).Progress() == 0 {
					runtime.Gosched()
				}
			}
		}(tid)
	}
	for !pred() {
		if a.c.Thread(0).Progress() == 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
}

// reduceDt performs the per-step global max-reduction: leaves' dt flows
// to rank 0, which broadcasts the go-ahead for the next step.
func (a *app) reduceDt(parity int, local float64) {
	a.dtMax(parity, local)
	if a.rank != 0 {
		var msg [16]byte
		msg[0] = kindDtUp
		msg[1] = byte(parity)
		binary.LittleEndian.PutUint64(msg[8:], math.Float64bits(local))
		lcw.Send(a.c.Thread(0), 0, msg[:])
		// Wait for the broadcast.
		a.waitAll(func() bool { return a.bcastSeen[parity].Load() > 0 })
		a.bcastSeen[parity].Store(0)
		a.dtValue[parity] = 0
		return
	}
	// Rank 0: gather everyone, then broadcast.
	a.waitAll(func() bool { return a.dtArrived[parity].Load() >= int32(a.n-1) })
	a.dtArrived[parity].Store(0)
	for dst := 1; dst < a.n; dst++ {
		var msg [16]byte
		msg[0] = kindDtBcast
		msg[1] = byte(parity)
		binary.LittleEndian.PutUint64(msg[8:], atomic.LoadUint64(&a.dtValue[parity]))
		lcw.Send(a.c.Thread(0), dst, msg[:])
	}
	a.dtValue[parity] = 0
}
