package netsim

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// Every multicast delivery reads its receiver's slot and every train
// entry is moved by the arrival sort's scatter passes: a slot stays
// within 24 bytes and a train entry at 16.
func TestSlotTableLayout(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 24 {
		t.Errorf("slot is %d bytes, want at most 24", size)
	}
	if size := unsafe.Sizeof(fanEntry{}); size != 16 {
		t.Errorf("fanEntry is %d bytes, want 16", size)
	}
}

// Rearm keeps the first keep slots and releases the rest; a released
// slot that kept its endpoint would hold the previous run's protocol
// graph in the table's backing array until a later run reused it.
func TestRearmClearsSlotTail(t *testing.T) {
	const n, keep = 12, 5
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	for i := 0; i < n; i++ {
		nw.AddNode("").SetEndpoint(&countingEndpoint{})
	}
	nw.Retire(2)
	nw.AddNode("again") // slot 2's second tenancy
	k.Reset(2)
	nw.Rearm(k, DefaultConfig(), keep)
	if nw.Nodes() != keep {
		t.Fatalf("Rearm kept %d slots, want %d", nw.Nodes(), keep)
	}
	for i, s := range nw.slots[:cap(nw.slots)] {
		if s.ep != nil {
			t.Errorf("slot %d still holds an endpoint after Rearm(%d)", i, keep)
		}
	}
	for _, s := range nw.slots {
		if !s.txUp || !s.rxUp || s.retired {
			t.Errorf("a kept slot is not up and unretired: %+v", s)
		}
	}
	if nw.slots[2].gen != 1 {
		t.Errorf("slot 2 is at tenancy %d after Rearm, want 1 (kept)", nw.slots[2].gen)
	}
}

// dropLog records each drop's receiver and reason.
type dropLog struct{ drops map[NodeID][]string }

func (l *dropLog) MessageSent(sim.Time, *Message)      {}
func (l *dropLog) MessageDelivered(sim.Time, *Message) {}
func (l *dropLog) MessageDropped(_ sim.Time, m *Message, reason string) {
	l.drops[m.To] = append(l.drops[m.To], reason)
}
func (l *dropLog) NodeEvent(sim.Time, NodeID, string) {}

// A multicast train in flight when two of its receivers leave: the slot
// retired and left empty drops its frame with "rx down"; the slot
// retired and handed to a new tenant drops it as "slot recycled", and
// the new tenant hears nothing of it — only of frames sent after it
// joined.
func TestMulticastTrainAcrossChurn(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	log := &dropLog{drops: make(map[NodeID][]string)}
	nw.SetTracer(log)
	eps := make([]*countingEndpoint, 4)
	for i := range eps {
		eps[i] = &countingEndpoint{}
		n := nw.AddNode("")
		n.SetEndpoint(eps[i])
		nw.Join(n.ID, Group(1))
	}
	const gone, recycled, stays = 1, 2, 3

	nw.Multicast(0, Group(1), Outgoing{Kind: "before"}, 1)
	nw.Retire(gone)
	nw.Retire(recycled)
	tenant := nw.AddNode("tenant")
	if tenant.ID != recycled {
		t.Fatalf("AddNode took slot %d, want the last retired, %d", tenant.ID, recycled)
	}
	ep := &countingEndpoint{}
	tenant.SetEndpoint(ep)
	nw.Join(tenant.ID, Group(1))
	k.Run(sim.Second)

	if got := log.drops[gone]; len(got) != 1 || got[0] != "rx down" {
		t.Errorf("retired slot's drops = %q, want [rx down]", got)
	}
	if got := log.drops[recycled]; len(got) != 1 || got[0] != "slot recycled" {
		t.Errorf("recycled slot's drops = %q, want [slot recycled]", got)
	}
	if ep.n != 0 || eps[gone].n != 0 || eps[recycled].n != 0 {
		t.Errorf("the churned slots' endpoints heard %d/%d frames, the new tenant %d; want none",
			eps[gone].n, eps[recycled].n, ep.n)
	}
	if eps[stays].n != 1 {
		t.Errorf("the staying member heard %d frames, want 1", eps[stays].n)
	}

	nw.Multicast(0, Group(1), Outgoing{Kind: "after"}, 1)
	k.Run(2 * sim.Second)
	if ep.n != 1 || eps[stays].n != 2 {
		t.Errorf("after the churn the tenant heard %d frames and the staying member %d, want 1 and 2", ep.n, eps[stays].n)
	}
	if len(log.drops[gone]) != 1 {
		t.Errorf("the retired slot, no longer a member, saw %d drops, want its first only", len(log.drops[gone]))
	}
}

// A build that reserves its population attaches it without moving the
// node table or the slot table.
func TestGrowReservesNodeTables(t *testing.T) {
	nw := mustNew(sim.New(1), DefaultConfig())
	nw.AddNode("first")
	nw.Grow(100)
	nodes, slots := &nw.nodes[:1][0], &nw.slots[:1][0]
	for i := 0; i < 100; i++ {
		nw.AddNode("")
	}
	if &nw.nodes[0] != nodes || &nw.slots[0] != slots {
		t.Error("AddNode regrew a table that Grow had reserved")
	}
}
