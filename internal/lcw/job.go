package lcw

import (
	"fmt"

	"lci"
)

// NewJob builds a job for any backend kind on the given simulated
// platform. It is the one construction path: the benchmark harness and
// the applications alike get every library from here, so all of them
// run the identical client code (§6.2).
func NewJob(cfg Config, platform lci.Platform) (*Job, error) {
	if cfg.Ranks < 1 || cfg.ThreadsPerRank < 1 {
		return nil, fmt.Errorf("lcw: need at least 1 rank and 1 thread")
	}
	if cfg.Devices > 0 && cfg.Kind != LCI {
		return nil, fmt.Errorf("lcw: the Devices pool knob is LCI-only (%v has no device pool)", cfg.Kind)
	}
	if (cfg.Topology != nil || cfg.Placement != nil) && cfg.Kind != LCI {
		return nil, fmt.Errorf("lcw: the Topology/Placement knobs are LCI-only (%v has no placement policy)", cfg.Kind)
	}
	if cfg.Placement != nil && cfg.Topology == nil {
		// A placement with no topology would be silently inert — fatal for
		// the measurement gates built on the difference between policies.
		return nil, fmt.Errorf("lcw: Placement requires a Topology (a placement without domains is never consulted)")
	}
	switch cfg.Kind {
	case LCI:
		return newLCIJob(cfg, platform)
	case MPI, MPIX:
		return newMPIJob(cfg, platform.Provider)
	case GASNET:
		return newGASNetJob(cfg, platform.Provider)
	default:
		return nil, fmt.Errorf("lcw: unknown backend kind %v", cfg.Kind)
	}
}
