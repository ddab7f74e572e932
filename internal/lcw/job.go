package lcw

import (
	"fmt"

	"lci"
	"lci/internal/core"
)

// NewJob builds a job for any backend kind on the given simulated
// platform. This is the entry point the benchmark harness uses so that
// every library runs the identical benchmark code (§6.2).
func NewJob(cfg Config, platform lci.Platform) (*Job, error) {
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
		return NewLCIJob(cfg, platform, core.Config{})
	case MPI, MPIX:
		return NewMPIJob(cfg, cfg.Kind, platform.Provider)
	case GASNET:
		return NewGASNetJob(cfg, platform.Provider)
	default:
		return nil, fmt.Errorf("lcw: unknown backend kind %v", cfg.Kind)
	}
}
