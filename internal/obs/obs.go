// Package obs is the unified telemetry layer: a registry of
// preallocated atomic counters, gauges and log-bucket histograms, a
// fixed-size flight recorder for recent trace events, and hand-rolled
// Prometheus/JSON exposition — no external dependencies.
//
// Every emitting site obeys two rules, so telemetry can stay attached
// to the deterministic simulation paths:
//
//   - No randomness. Nothing in this package draws from any kernel's
//     random stream or perturbs the event schedule; golden sweep
//     fingerprints are byte-identical with telemetry on or off.
//   - No allocation on the hot path. Counter increments are single
//     atomic adds, histogram observations index a fixed bucket array,
//     and flight-recorder appends copy one struct into a preallocated
//     ring. Per-kind counters go through an RWMutex-guarded map whose
//     read path allocates nothing (a sync.Map would box every string
//     key). The alloc guards in obs_test.go pin all of this at
//     0 allocs/op, the same way netsim's fast-path gates do.
//
// Ownership: hot-path structures are fed from the goroutine that owns
// them (a netsim.Tracer fires on its network's goroutine) and read
// either through atomics (counters, gauges, histograms — safe from any
// goroutine) or from that owning goroutine (flight-recorder rings, which
// are plain memory).
package obs
