package obs

import (
	"bufio"
	"encoding/json"
	"io"

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

// TraceEvent is one recorded network event: the one trace record the
// flight ring keeps and the JSONL stream writes. Kind carries the
// message kind for frame ops and the event name for node ops; From
// doubles as the node for node ops. At is virtual nanoseconds.
type TraceEvent struct {
	At        sim.Time      `json:"at"`
	Op        string        `json:"op"`
	Kind      string        `json:"kind,omitempty"`
	From      netsim.NodeID `json:"from"`
	To        netsim.NodeID `json:"to"`
	Transport string        `json:"transport,omitempty"`
	Counted   bool          `json:"counted,omitempty"`
	Multicast bool          `json:"multicast,omitempty"`
	Reason    string        `json:"reason,omitempty"`
}

// recordSink consumes trace records.
type recordSink interface{ record(TraceEvent) }

// records is the package's one netsim.Tracer adapter: it turns each
// callback into a TraceEvent for its sink. The flight ring and the
// JSONL writer embed it, so both hold the same records.
type records struct{ sink recordSink }

func frameEvent(t sim.Time, op string, m *netsim.Message, reason string) TraceEvent {
	return TraceEvent{At: t, Op: op, Kind: m.Kind, From: m.From, To: m.To,
		Transport: m.Transport.String(), Counted: m.Counted, Multicast: m.Multicast, Reason: reason}
}

// MessageSent implements netsim.Tracer.
func (r records) MessageSent(t sim.Time, m *netsim.Message) {
	r.sink.record(frameEvent(t, OpSent, m, ""))
}

// MessageDelivered implements netsim.Tracer.
func (r records) MessageDelivered(t sim.Time, m *netsim.Message) {
	r.sink.record(frameEvent(t, OpDelivered, m, ""))
}

// MessageDropped implements netsim.Tracer.
func (r records) MessageDropped(t sim.Time, m *netsim.Message, reason string) {
	r.sink.record(frameEvent(t, OpDropped, m, reason))
}

// NodeEvent implements netsim.Tracer.
func (r records) NodeEvent(t sim.Time, node netsim.NodeID, event string) {
	r.sink.record(TraceEvent{At: t, Op: OpNode, Kind: event, From: node, To: node})
}

// TraceWriter streams trace records to an io.Writer as JSON lines, one
// TraceEvent per line — the same JSON a flight snapshot's events hold.
// It implements netsim.Tracer. Errors are sticky: the first write
// error stops output and Flush reports it.
type TraceWriter struct {
	records
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewTraceWriter creates a JSONL trace writer.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	tw := &TraceWriter{w: bw, enc: json.NewEncoder(bw)}
	tw.sink = tw
	return tw
}

func (tw *TraceWriter) record(ev TraceEvent) {
	if tw.err == nil {
		tw.err = tw.enc.Encode(ev)
	}
}

// Flush drains buffered output; call it when the run completes.
func (tw *TraceWriter) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}
