package frodo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// propRig wires a propagator from node 0 towards nodes 1..n with
// recording endpoints.
type propRig struct {
	k         *sim.Kernel
	nw        *netsim.Network
	prop      *propagator
	delivered map[netsim.NodeID]int
	exhausted []netsim.NodeID
}

func newPropRig(t *testing.T, n int, policy core.RetryPolicy) *propRig {
	t.Helper()
	r := &propRig{k: sim.New(1), delivered: map[netsim.NodeID]int{}}
	r.nw = netsim.MustNew(r.k, netsim.DefaultConfig())
	r.nw.AddNode("sender")
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i + 1)
		node := r.nw.AddNode("user")
		node.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
			if m.Packet.Kind == wire.Update {
				r.delivered[id]++
			}
		}))
	}
	r.prop = newPropagator(r.k, r.nw, 0, policy,
		func(user netsim.NodeID, _ discovery.ServiceRecord) {
			r.exhausted = append(r.exhausted, user)
		})
	return r
}

func propRec(v uint64) discovery.ServiceRecord {
	return discovery.ServiceRecord{Manager: 0, SD: discovery.ServiceDescription{
		DeviceType: "d", ServiceType: "s", Attributes: map[string]string{}, Version: v}.Freeze()}
}

func TestPropagatorDeliversAndStopsOnAck(t *testing.T) {
	r := newPropRig(t, 1, core.RetryPolicy{Interval: 10 * sim.Second, Limit: 3})
	r.prop.Notify(1, propRec(2), 2)
	// Ack after the first transmission.
	r.k.After(sim.Second, func() { r.prop.Ack(1, 2) })
	r.k.Run(100 * sim.Second)
	if r.delivered[1] != 1 {
		t.Errorf("delivered %d copies, want 1 (ack stopped retries)", r.delivered[1])
	}
	if len(r.exhausted) != 0 {
		t.Errorf("exhausted = %v, want none", r.exhausted)
	}
	if r.prop.Outstanding() != 0 {
		t.Error("notification still outstanding after ack")
	}
}

func TestPropagatorRetriesAndExhausts(t *testing.T) {
	r := newPropRig(t, 1, core.RetryPolicy{Interval: 10 * sim.Second, Limit: 3})
	r.nw.Node(1).SetRx(false) // user unreachable
	r.prop.Notify(1, propRec(2), 2)
	r.k.Run(100 * sim.Second)
	if r.delivered[1] != 0 {
		t.Errorf("delivered %d, want 0", r.delivered[1])
	}
	if len(r.exhausted) != 1 || r.exhausted[0] != 1 {
		t.Errorf("exhausted = %v, want [1]", r.exhausted)
	}
}

func TestPropagatorSupersededNotification(t *testing.T) {
	// "the service changes again, requiring the Manager to reset the
	// notification process": the v2 schedule stops when v3 is notified.
	r := newPropRig(t, 1, core.RetryPolicy{Interval: 10 * sim.Second, Limit: 10})
	r.nw.Node(1).SetRx(false)
	r.prop.Notify(1, propRec(2), 2)
	r.k.After(15*sim.Second, func() { r.prop.Notify(1, propRec(3), 3) })
	r.k.After(25*sim.Second, func() { r.nw.Node(1).SetRx(true) })
	r.k.Run(200 * sim.Second)
	// Only v3 copies arrive after recovery; an ack for v3 clears it.
	if r.delivered[1] == 0 {
		t.Fatal("superseding notification never delivered")
	}
	r.prop.Ack(1, 3)
	if r.prop.Outstanding() != 0 {
		t.Error("outstanding after ack of the superseding version")
	}
}

func TestPropagatorStaleAckIgnored(t *testing.T) {
	r := newPropRig(t, 1, core.RetryPolicy{Interval: 10 * sim.Second, Limit: 5})
	r.nw.Node(1).SetRx(false)
	r.prop.Notify(1, propRec(3), 3)
	r.prop.Ack(1, 2) // ack for an older version must not stop v3
	if r.prop.Outstanding() != 1 {
		t.Error("stale ack cleared the outstanding notification")
	}
}

func TestPropagatorCancelAll(t *testing.T) {
	r := newPropRig(t, 3, core.RetryPolicy{Interval: 10 * sim.Second, Limit: 0})
	for i := 1; i <= 3; i++ {
		r.nw.Node(netsim.NodeID(i)).SetRx(false)
		r.prop.Notify(netsim.NodeID(i), propRec(2), 2)
	}
	if r.prop.Outstanding() != 3 {
		t.Fatalf("outstanding = %d", r.prop.Outstanding())
	}
	r.prop.CancelAll()
	if r.prop.Outstanding() != 0 {
		t.Error("CancelAll left notifications outstanding")
	}
	// No further transmissions after cancel.
	before := r.nw.Counters().Sends
	r.k.Run(100 * sim.Second)
	if r.nw.Counters().Sends != before {
		t.Error("canceled schedules kept transmitting")
	}
}

func TestPropagatorRecordIsolation(t *testing.T) {
	// The record the propagator transmits is an immutable snapshot: a
	// later service change builds a NEW snapshot (Mutate), so nothing the
	// caller does afterwards can leak into retransmissions of the old one.
	r := newPropRig(t, 1, core.RetryPolicy{Interval: 5 * sim.Second, Limit: 3})
	var got discovery.ServiceRecord
	r.nw.Node(1).SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
		got = m.Packet.Record()
	}))
	rec := propRec(2)
	r.prop.Notify(1, rec, 2)
	// The caller moves on to the next version; the outstanding v2
	// notification must keep transmitting the v2 snapshot.
	_ = rec.SD.Mutate(func(attrs map[string]string) { attrs["mutated"] = "yes" })
	r.k.Run(10 * sim.Second)
	if got.SD.Attr("mutated") != "" {
		t.Error("propagator transmitted a snapshot the caller superseded")
	}
	if got.SD != rec.SD {
		t.Error("propagator should share the notified snapshot pointer")
	}
}
