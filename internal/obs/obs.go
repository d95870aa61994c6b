// Package obs is the simulator's zero-dependency observability layer:
// a concurrency-safe metrics registry rendered in Prometheus text format,
// a span tracer emitting Chrome trace-event JSON (viewable in Perfetto),
// an opt-in HTTP endpoint serving /metrics plus net/http/pprof, and the
// shared stderr progress line for batch sweeps.
//
// Design rules, in order of importance:
//
//   - Observability never perturbs results. Nothing in this package touches
//     architected state; publishers read counters the simulator already
//     maintains and the golden logv2 byte-identity tests run with metrics
//     and tracing enabled.
//   - The disabled path is free. Metrics collection is off until
//     SetMetricsEnabled(true); instrumented call sites are nil-guarded
//     (a nil *Tracer or zero Span no-ops) so the hot loop pays one
//     predictable comparison and no allocations.
//   - Only the standard library. The registry speaks the Prometheus text
//     exposition format and the tracer the Chrome trace-event format
//     directly, so no client library is required.
//
// The package is deliberately split from the simulation packages: obs
// imports only the standard library, and the simulator packages (machine,
// runner, the facade) import obs, never the reverse.
package obs

import "sync/atomic"

// metricsOn gates metric publication. The simulator's publishers check it
// once per run (machine construction, batch setup), not per event.
var metricsOn atomic.Bool

// SetMetricsEnabled turns metric publication on or off process-wide.
// The CLIs enable it with -http; tests enable it explicitly. Machines
// constructed while disabled never publish, so enabling mid-run affects
// only runs started afterwards.
func SetMetricsEnabled(on bool) { metricsOn.Store(on) }

// MetricsEnabled reports whether metric publication is on.
func MetricsEnabled() bool { return metricsOn.Load() }

// CoreCounters is the common counter set a CPU timing model exposes for
// telemetry. Fields a model does not track stay zero (Mipsy has no branch
// predictor, so Mispredicts and Flushes never move there).
type CoreCounters struct {
	// Committed counts architecturally completed instructions.
	Committed uint64
	// Mispredicts counts branch mispredictions (out-of-order core only).
	Mispredicts uint64
	// Flushes counts serializing/exception pipeline flushes.
	Flushes uint64
	// WrongPath counts wrong-path instructions fetched during speculation.
	WrongPath uint64
	// WindowOcc is the instruction-window occupancy at sampling time
	// (out-of-order core only; an instantaneous value, not a counter).
	WindowOcc uint64
	// ReadyDepth is the number of issue-ready window entries at sampling
	// time (out-of-order core only; instantaneous).
	ReadyDepth uint64
	// SBHits and SBMisses count superblock cache lookups served from the
	// cache versus (re)builds (swift fast-forward core only).
	SBHits   uint64
	SBMisses uint64
	// SBInvalidations counts superblock page invalidations — stores or
	// DMA landing in decoded code pages (swift core only).
	SBInvalidations uint64
	// SlowSteps counts instructions the fast-forward core delegated to
	// the exact interpreter (swift core only).
	SlowSteps uint64
	// Skipped counts cycles the core's next-event clock skip elided since
	// the core was built (detailed cores only).
	Skipped uint64
}
