package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
)

// FlightRecorder is a fixed-size ring of the most recent trace records
// on one network: a netsim.Tracer tee, attached exactly like
// the oracle's tap. Appends are plain stores by the single goroutine
// that owns the network (the Tracer contract), so the hot path is one
// atomic load (the freeze flag) plus a struct copy — no locks, no
// allocation.
//
// Freeze stops recording, preserving the ring as the last-N-events
// context of whatever triggered it (the oracle's first violation). It
// is an atomic flag flip, callable from any goroutine. Snapshot reads
// the ring's plain memory, so it must be synchronized with the owning
// goroutine: after the run completes, on the owner (the live driver
// reads via Call), or any time after Freeze has been observed by the
// owner.
type FlightRecorder struct {
	records
	buf    []TraceEvent
	mask   uint64
	n      uint64 // total events ever appended; head = n & mask
	frozen atomic.Bool
	reason atomic.Pointer[string]
}

// DefaultFlightSize is the ring capacity used when callers pass
// size ≤ 0.
const DefaultFlightSize = 256

// NewFlightRecorder builds a recorder of size events, rounded up to a
// power of two (minimum 16).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	cap := 16
	for cap < size {
		cap <<= 1
	}
	fr := &FlightRecorder{buf: make([]TraceEvent, cap), mask: uint64(cap - 1)}
	fr.sink = fr
	return fr
}

func (fr *FlightRecorder) record(ev TraceEvent) {
	if fr.frozen.Load() {
		return
	}
	fr.buf[fr.n&fr.mask] = ev
	fr.n++
}

// Freeze stops recording, keeping the ring as the context of reason.
// First freeze wins; later calls are no-ops. Safe from any goroutine.
func (fr *FlightRecorder) Freeze(reason string) {
	if fr.frozen.CompareAndSwap(false, true) {
		fr.reason.Store(&reason)
	}
}

// FlightSnapshot is a dumpable copy of one recorder's ring, oldest
// event first. Shard is always 0: every run is one network.
type FlightSnapshot struct {
	Shard  int          `json:"shard"`
	Total  uint64       `json:"total_events"`
	Frozen string       `json:"frozen_by,omitempty"`
	Events []TraceEvent `json:"events"`
}

// Snapshot copies the ring out (see the type comment for when this is
// safe to call).
func (fr *FlightRecorder) Snapshot() FlightSnapshot {
	s := FlightSnapshot{Total: fr.n}
	if r := fr.reason.Load(); r != nil {
		s.Frozen = *r
	}
	n := fr.n
	size := uint64(len(fr.buf))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	for i := start; i < n; i++ {
		s.Events = append(s.Events, fr.buf[i&fr.mask])
	}
	return s
}

// WriteFlightJSON dumps a set of flight snapshots as indented JSON.
func WriteFlightJSON(w io.Writer, snaps []FlightSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}
