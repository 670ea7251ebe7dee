package verify

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/discovery"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// frameCopy is what a Tracer may keep of a frame: values, never the
// pointer.
type frameCopy struct {
	op     string
	at     sim.Time
	reason string
	m      netsim.Message
}

// copyingTracer is the reference consumer: it copies every Message it is
// shown at the moment it is shown it.
type copyingTracer struct{ frames []frameCopy }

func (c *copyingTracer) MessageSent(t sim.Time, m *netsim.Message) {
	c.frames = append(c.frames, frameCopy{op: "sent", at: t, m: *m})
}
func (c *copyingTracer) MessageDelivered(t sim.Time, m *netsim.Message) {
	c.frames = append(c.frames, frameCopy{op: "delivered", at: t, m: *m})
}
func (c *copyingTracer) MessageDropped(t sim.Time, m *netsim.Message, reason string) {
	c.frames = append(c.frames, frameCopy{op: "dropped", at: t, reason: reason, m: *m})
}
func (c *copyingTracer) NodeEvent(sim.Time, netsim.NodeID, string) {}

// TCP frames are pooled records, so the *Message a Tracer is shown is
// rewritten as soon as the call returns — many times over in this
// run, where forty exchanges share a handful of records. Every Tracer in
// the tree must therefore have kept values: after the run each one's
// retained view is compared, frame by frame, with a consumer that copied.
func TestTracerConsumersKeepTCPFrameData(t *testing.T) {
	const (
		client, server = netsim.NodeID(0), netsim.NodeID(1)
		manager        = netsim.NodeID(7)
		lease          = 1800 * sim.Second
	)
	k := sim.New(3)
	cfg := netsim.DefaultConfig()
	cfg.Loss = 0.2 // drops, setup retries and retransmissions in the mix
	nw := netsim.MustNew(k, cfg)
	nw.AddNode("client").SetEndpoint(netsim.EndpointFunc(func(*netsim.Message) {}))
	nw.AddNode("server").SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
		switch p := m.Payload.(type) {
		case discovery.Subscribe:
			m.Conn.Reply(netsim.Outgoing{Kind: "SubscribeAck", Counted: true,
				Payload: discovery.SubscribeAck{Manager: p.Manager}}, nil)
		case discovery.Renew:
			m.Conn.Reply(netsim.Outgoing{Kind: "RenewAck",
				Payload: discovery.RenewAck{Manager: p.Manager}}, nil)
		}
	}))

	ref := &copyingTracer{}
	rec := netsim.NewRecorder(nw)
	rec.Verbose = true
	var stream bytes.Buffer
	w := trace.NewWriter(&stream)
	flight := obs.NewFlightRecorder(0, 1<<14)
	oracle := NewOracle(k, manager, DefaultOracleConfig(experiment.Jini1))
	nw.SetTracer(netsim.TeeTracer(ref, rec, w, flight, oracle))

	tcp := netsim.DefaultTCPConfig()
	nw.SendTCPWith(tcp, client, server, netsim.Outgoing{Kind: "Subscribe", Counted: true,
		Payload: discovery.Subscribe{Manager: manager, Lease: lease}}, nil)
	const renewals = 40
	for i := 1; i <= renewals; i++ {
		k.At(sim.Time(i)*120*sim.Second, func() {
			nw.SendTCPWith(tcp, client, server, netsim.Outgoing{Kind: "Renew",
				Payload: discovery.Renew{Manager: manager, Lease: lease}}, nil)
		})
	}
	k.Run(6000 * sim.Second)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var lastLeaseWrite sim.Time
	sawDrop := false
	for _, f := range ref.frames {
		sawDrop = sawDrop || f.op == "dropped"
		if f.op == "delivered" {
			switch f.m.Payload.(type) {
			case discovery.Subscribe, discovery.Renew:
				lastLeaseWrite = f.at
			}
		}
	}
	if len(ref.frames) < 8*renewals || !sawDrop || lastLeaseWrite == 0 {
		t.Fatalf("vacuous run: %d frames, drop=%v, lease write at %v", len(ref.frames), sawDrop, lastLeaseWrite)
	}

	// netsim.Recorder: one verbose line per frame, rendered at the time.
	name := map[netsim.NodeID]string{client: "client", server: "server"}
	lines := rec.Lines() // no node events: the tracer was installed after the nodes attached
	if len(lines) != len(ref.frames) {
		t.Fatalf("Recorder holds %d frame lines, the copying tracer %d", len(lines), len(ref.frames))
	}
	for i, f := range ref.frames {
		var want string
		switch f.op {
		case "sent":
			want = fmt.Sprintf("%10.3f  send  %-22s %s -> %s (%s)", f.at.Sec(), f.m.Kind, name[f.m.From], name[f.m.To], f.m.Transport)
		case "delivered":
			want = fmt.Sprintf("%10.3f  recv  %-22s %s -> %s", f.at.Sec(), f.m.Kind, name[f.m.From], name[f.m.To])
		default:
			want = fmt.Sprintf("%10.3f  drop  %-22s %s -> %s: %s", f.at.Sec(), f.m.Kind, name[f.m.From], name[f.m.To], f.reason)
		}
		if lines[i] != want {
			t.Fatalf("Recorder line %d = %q, want %q", i, lines[i], want)
		}
	}

	// internal/trace: the JSONL stream, read back.
	events, err := trace.Read(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(ref.frames) {
		t.Fatalf("trace stream holds %d events, the copying tracer %d", len(events), len(ref.frames))
	}
	traceType := map[string]trace.EventType{"sent": trace.EventSend, "delivered": trace.EventDeliver, "dropped": trace.EventDrop}
	for i, f := range ref.frames {
		e := events[i]
		if e.Type != traceType[f.op] || e.T != f.at.Sec() || e.Kind != f.m.Kind || e.From != int(f.m.From) ||
			e.To != int(f.m.To) || e.Transport != f.m.Transport.String() || e.Reason != f.reason ||
			(f.op == "sent" && e.Counted != f.m.Counted) {
			t.Fatalf("trace event %d = %+v, want %s of %+v at %v", i, e, f.op, f.m, f.at)
		}
	}

	// obs.FlightRecorder: the ring, large enough here to hold the run.
	snap := flight.Snapshot()
	if len(snap.Events) != len(ref.frames) {
		t.Fatalf("flight recorder holds %d events, the copying tracer %d", len(snap.Events), len(ref.frames))
	}
	for i, f := range ref.frames {
		e := snap.Events[i]
		if e.Op != f.op || e.At != f.at || e.Kind != f.m.Kind || e.From != f.m.From || e.To != f.m.To || e.Reason != f.reason {
			t.Fatalf("flight event %d = %+v, want %s of %+v at %v", i, e, f.op, f.m, f.at)
		}
	}

	// verify.Oracle: the lease ledger it built from TCP-delivered payloads
	// names the right parties and carries the last renewal's expiry; every
	// RenewAck it audited was for a live lease.
	want := map[leaseKey]sim.Time{{holder: server, renewer: client, manager: manager}: lastLeaseWrite + sim.Time(lease)}
	if fmt.Sprint(oracle.leases) != fmt.Sprint(want) {
		t.Errorf("oracle lease ledger = %v, want %v", oracle.leases, want)
	}
	if rep := oracle.Report(); rep.Total != 0 {
		t.Errorf("oracle reports violations on a clean lease exchange: %s", rep)
	}
}
