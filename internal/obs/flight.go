package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Trace-event op names. Constants, so recording one copies a string
// header and allocates nothing.
const (
	OpSent      = "sent"
	OpDelivered = "delivered"
	OpDropped   = "dropped"
	OpNode      = "node"
)

// TraceEvent is one recorded network event. Kind carries the message
// kind for frame ops and the event name for node ops; From doubles as
// the node for node ops.
type TraceEvent struct {
	At     sim.Time      `json:"at"`
	Op     string        `json:"op"`
	Kind   string        `json:"kind,omitempty"`
	From   netsim.NodeID `json:"from"`
	To     netsim.NodeID `json:"to"`
	Reason string        `json:"reason,omitempty"`
}

// FlightRecorder is a fixed-size ring of the most recent trace events
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
	shard  int
	buf    []TraceEvent
	mask   uint64
	n      uint64 // total events ever appended; head = n & mask
	frozen atomic.Bool
	reason atomic.Pointer[string]
}

// DefaultFlightSize is the ring capacity used when callers pass
// size ≤ 0.
const DefaultFlightSize = 256

// NewFlightRecorder builds a recorder whose snapshots carry the given
// shard label; size is rounded up to a power of two (minimum 16).
func NewFlightRecorder(shard, size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	cap := 16
	for cap < size {
		cap <<= 1
	}
	return &FlightRecorder{shard: shard, buf: make([]TraceEvent, cap), mask: uint64(cap - 1)}
}

func (fr *FlightRecorder) append(ev TraceEvent) {
	if fr.frozen.Load() {
		return
	}
	fr.buf[fr.n&fr.mask] = ev
	fr.n++
}

// MessageSent implements netsim.Tracer.
func (fr *FlightRecorder) MessageSent(t sim.Time, m *netsim.Message) {
	fr.append(TraceEvent{At: t, Op: OpSent, Kind: m.Kind, From: m.From, To: m.To})
}

// MessageDelivered implements netsim.Tracer.
func (fr *FlightRecorder) MessageDelivered(t sim.Time, m *netsim.Message) {
	fr.append(TraceEvent{At: t, Op: OpDelivered, Kind: m.Kind, From: m.From, To: m.To})
}

// MessageDropped implements netsim.Tracer.
func (fr *FlightRecorder) MessageDropped(t sim.Time, m *netsim.Message, reason string) {
	fr.append(TraceEvent{At: t, Op: OpDropped, Kind: m.Kind, From: m.From, To: m.To, Reason: reason})
}

// NodeEvent implements netsim.Tracer.
func (fr *FlightRecorder) NodeEvent(t sim.Time, node netsim.NodeID, event string) {
	fr.append(TraceEvent{At: t, Op: OpNode, Kind: event, From: node, To: node})
}

// Freeze stops recording, keeping the ring as the context of reason.
// First freeze wins; later calls are no-ops. Safe from any goroutine.
func (fr *FlightRecorder) Freeze(reason string) {
	if fr.frozen.CompareAndSwap(false, true) {
		fr.reason.Store(&reason)
	}
}

// FlightSnapshot is a dumpable copy of one recorder's ring, oldest
// event first.
type FlightSnapshot struct {
	Shard  int          `json:"shard"`
	Total  uint64       `json:"total_events"`
	Frozen string       `json:"frozen_by,omitempty"`
	Events []TraceEvent `json:"events"`
}

// Snapshot copies the ring out (see the type comment for when this is
// safe to call).
func (fr *FlightRecorder) Snapshot() FlightSnapshot {
	s := FlightSnapshot{Shard: fr.shard, Total: fr.n}
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
