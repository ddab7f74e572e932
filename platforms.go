package lci

import (
	"lci/internal/netsim/nic"
	"lci/internal/topo"
)

// Platform describes a simulated evaluation platform (Table 2 of the
// paper). The real systems are not available here; each platform maps to
// a provider simulation whose lock structure and per-operation costs
// mirror the paper's analysis (DESIGN.md §2).
type Platform struct {
	// Name labels the platform ("SimExpanse", "SimDelta").
	Name string
	// NIC and Network describe what is being simulated.
	NIC, Network string
	// Provider holds the simulated provider's lock layout and cost model;
	// Provider.Layout.Provider() names its family ("ibv" or "ofi").
	Provider nic.Config
	// PendingCap bounds per-endpoint RNR buffering on the fabric.
	PendingCap int
	// NodeTopo is the platform's synthetic host topology (NUMA domains,
	// cores, distances; DESIGN.md §3). It is *available*, not applied:
	// worlds stay single-domain unless lci.WithTopology (or
	// core.Config.Topology) opts in, so topology-oblivious runs keep
	// their exact locality-free behavior.
	NodeTopo *topo.Topology
}

// Topology returns the platform's synthetic node topology (see NodeTopo).
func (p Platform) Topology() *topo.Topology { return p.NodeTopo }

// SimExpanse models SDSC Expanse: Mellanox ConnectX-6 HDR InfiniBand via
// libibverbs (mlx5). Fine-grained provider locks (per QP/CQ/SRQ, thread
// domains) let replicated LCI devices scale.
func SimExpanse() Platform {
	return Platform{
		Name:    "SimExpanse",
		NIC:     "sim-ConnectX-6",
		Network: "sim-HDR-InfiniBand(2x50Gbps)",
		Provider: nic.Config{
			Layout:         nic.LockPerQP,
			TxDepth:        256,
			SendOverheadNs: 150,
			RecvOverheadNs: 100,
			InjectGapNs:    8000,
			CrossDomainNs:  1200,
			ConnectSetupNs: 25000,
		},
		PendingCap: 1024,
		NodeTopo:   topo.SimExpanse(),
	}
}

// SimDelta models NCSA Delta: HPE Cassini Slingshot-11 via the libfabric
// cxi provider. The single endpoint lock and the global registration-cache
// mutex consulted on every operation cap multithreaded scaling (§5.2.4).
func SimDelta() Platform {
	return Platform{
		Name:    "SimDelta",
		NIC:     "sim-Cassini",
		Network: "sim-Slingshot-11(200Gbps)",
		Provider: nic.Config{
			Layout:         nic.LockEndpoint,
			TxDepth:        256,
			SendOverheadNs: 200,
			RecvOverheadNs: 120,
			RegCacheNs:     60,
			RegisterNs:     400,
			InjectGapNs:    7000,
			CrossDomainNs:  1000,
			ConnectSetupNs: 30000,
		},
		PendingCap: 1024,
		NodeTopo:   topo.SimDelta(),
	}
}

// Platforms returns both simulated platforms in evaluation order.
func Platforms() []Platform { return []Platform{SimExpanse(), SimDelta()} }
