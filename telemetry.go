package lci

import (
	"lci/internal/telemetry"
)

// Runtime observability (internal/telemetry, DESIGN.md §8): per-layer
// counters, latency histograms, and a message-lifecycle trace ring behind
// one atomic flag word. Counters and histograms are on by default — the
// TestTelemetryOverhead gate bounds their cost — and the trace ring is
// opt-in (WithTelemetry or TelemetryFlagTrace at runtime).
type (
	// Telemetry is a runtime's observability root: flag toggles plus
	// Snapshot(), the structured diffable view of every layer.
	Telemetry = telemetry.Telemetry
	// TelemetryConfig selects a runtime's initial telemetry state; the
	// zero value is the default (counters+histograms on, trace off).
	TelemetryConfig = telemetry.Config
	// TelemetrySnapshot is the structured state of every layer: per-device
	// counters and gauges, packet-pool and aggregation counters (with the
	// aggregators' queued bytes), and latency histograms. It marshals directly to JSON, diffs
	// with Sub, and renders with WriteText/String.
	TelemetrySnapshot = telemetry.Snapshot
	// TraceEvent is one decoded message-lifecycle trace entry.
	TraceEvent = telemetry.Event
	// TraceEventKind classifies a TraceEvent (post/inject/rts/rtr/write/
	// deliver/complete).
	TraceEventKind = telemetry.EventKind
)

// Telemetry flag bits for Telemetry.Enable/Disable.
const (
	TelemetryFlagCounters = telemetry.FlagCounters
	TelemetryFlagHist     = telemetry.FlagHist
	TelemetryFlagTrace    = telemetry.FlagTrace
)

// WithTelemetry selects every rank's initial telemetry state — e.g.
// TelemetryConfig{Trace: true} to start with the lifecycle trace ring
// recording, or {Disable: true} for the bare-metal baseline the overhead
// gate measures against. Like WithTopology the choice survives option
// order: a later WithRuntimeConfig does not discard it.
func WithTelemetry(cfg TelemetryConfig) WorldOption {
	return func(w *World) { w.telOverride = &cfg }
}

// Telemetry returns this runtime's observability root.
// Telemetry().Snapshot() reads every layer's counters in one structured,
// diffable value; see internal/telemetry for the consistency contract
// (each counter exact, the set not globally instantaneous).
func (rt *Runtime) Telemetry() *Telemetry { return rt.core.Telemetry() }
