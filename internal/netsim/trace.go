package netsim

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Tracer observes network activity. Implementations must be cheap: the
// tracer runs on every frame when installed.
type Tracer interface {
	MessageSent(t sim.Time, m *Message)
	MessageDelivered(t sim.Time, m *Message)
	MessageDropped(t sim.Time, m *Message, reason string)
	NodeEvent(t sim.Time, node NodeID, event string)
}

// tee fans every trace event out to multiple tracers in order.
type tee []Tracer

// TeeTracer combines tracers into one that forwards every event to each,
// in argument order. Nil entries are skipped and a tee argument is
// spliced in flat, so tracers added one call at a time still make one
// list; zero or one tracers collapse to nil or the tracer itself.
func TeeTracer(ts ...Tracer) Tracer {
	out := make(tee, 0, len(ts))
	for _, t := range ts {
		switch t := t.(type) {
		case nil:
		case tee:
			out = append(out, t...)
		default:
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// MessageSent implements Tracer.
func (ts tee) MessageSent(t sim.Time, m *Message) {
	for _, tr := range ts {
		tr.MessageSent(t, m)
	}
}

// MessageDelivered implements Tracer.
func (ts tee) MessageDelivered(t sim.Time, m *Message) {
	for _, tr := range ts {
		tr.MessageDelivered(t, m)
	}
}

// MessageDropped implements Tracer.
func (ts tee) MessageDropped(t sim.Time, m *Message, reason string) {
	for _, tr := range ts {
		tr.MessageDropped(t, m, reason)
	}
}

// NodeEvent implements Tracer.
func (ts tee) NodeEvent(t sim.Time, node NodeID, event string) {
	for _, tr := range ts {
		tr.NodeEvent(t, node, event)
	}
}

// Recorder collects a human-readable event log in the style of the paper's
// §6.2 excerpts ("Manager Tx down at 381, up at 1191"). Node events are
// always recorded; message traffic only when Verbose is set, because a
// full run generates thousands of frames.
type Recorder struct {
	nw      *Network
	Verbose bool
	lines   []string
}

// NewRecorder creates a recorder bound to a network (used to resolve node
// names).
func NewRecorder(nw *Network) *Recorder { return &Recorder{nw: nw} }

func (r *Recorder) name(id NodeID) string {
	if id == NoNode {
		return "*"
	}
	n := r.nw.Node(id)
	if n.Name != "" {
		return n.Name
	}
	return fmt.Sprintf("node%d", id)
}

// MessageSent implements Tracer.
func (r *Recorder) MessageSent(t sim.Time, m *Message) {
	if !r.Verbose {
		return
	}
	r.lines = append(r.lines, fmt.Sprintf("%10.3f  send  %-22s %s -> %s (%s)",
		t.Sec(), m.Kind, r.name(m.From), r.name(m.To), m.Transport))
}

// MessageDelivered implements Tracer.
func (r *Recorder) MessageDelivered(t sim.Time, m *Message) {
	if !r.Verbose {
		return
	}
	r.lines = append(r.lines, fmt.Sprintf("%10.3f  recv  %-22s %s -> %s",
		t.Sec(), m.Kind, r.name(m.From), r.name(m.To)))
}

// MessageDropped implements Tracer.
func (r *Recorder) MessageDropped(t sim.Time, m *Message, reason string) {
	if !r.Verbose {
		return
	}
	r.lines = append(r.lines, fmt.Sprintf("%10.3f  drop  %-22s %s -> %s: %s",
		t.Sec(), m.Kind, r.name(m.From), r.name(m.To), reason))
}

// NodeEvent implements Tracer.
func (r *Recorder) NodeEvent(t sim.Time, node NodeID, event string) {
	r.lines = append(r.lines, fmt.Sprintf("%10.3f  node  %s %s", t.Sec(), r.name(node), event))
}

// Note appends a protocol-level annotation to the log (consistency
// reached, subscription purged, Central elected, …).
func (r *Recorder) Note(t sim.Time, format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf("%10.3f  note  %s", t.Sec(), fmt.Sprintf(format, args...)))
}

// Lines returns the collected log.
func (r *Recorder) Lines() []string { return r.lines }

// String joins the log with newlines.
func (r *Recorder) String() string { return strings.Join(r.lines, "\n") }
