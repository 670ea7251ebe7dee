package frodo_test

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/frodo"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ballotLog records, per node slot, the election records and devices the
// slot's deliveries reached.
type ballotLog struct {
	nw      *netsim.Network
	ballots map[netsim.NodeID]map[any]bool
	tenants map[netsim.NodeID]map[*frodo.Node]bool
}

func (l *ballotLog) MessageDelivered(_ sim.Time, m *netsim.Message) {
	nd := frodo.NodeOf(l.nw.Node(m.To).Endpoint())
	if l.ballots[m.To] == nil {
		l.ballots[m.To] = map[any]bool{}
		l.tenants[m.To] = map[*frodo.Node]bool{}
	}
	l.ballots[m.To][nd.Ballot()] = true
	l.tenants[m.To][nd] = true
}
func (l *ballotLog) MessageSent(sim.Time, *netsim.Message)            {}
func (l *ballotLog) MessageDropped(sim.Time, *netsim.Message, string) {}
func (l *ballotLog) NodeEvent(sim.Time, netsim.NodeID, string)        {}

// A build's election records go with its node slots: under permanent
// churn every tenant of a retired slot takes over the slot's record, and
// a rearmed run of the same churn finds every slot's record where the
// first run left it — it cuts none.
func TestFleetRecyclesBallotsWithSlots(t *testing.T) {
	p := experiment.DefaultParams()
	p.Topology.Users = 60
	p.Churn = experiment.Churn{Departures: 1, Arrivals: 40} // no absence: departures retire their slots
	spec := experiment.RunSpec{System: experiment.Frodo2P, Seed: 3, Params: p}
	var log *ballotLog
	spec.Attach = func(sc *experiment.Scenario) {
		log = &ballotLog{nw: sc.Net, ballots: map[netsim.NodeID]map[any]bool{}, tenants: map[netsim.NodeID]map[*frodo.Node]bool{}}
		sc.AddTracer(log)
	}
	ws := experiment.NewWorkspace()
	experiment.RunInto(ws, spec)
	first := log
	recycled := 0
	for id, ballots := range first.ballots {
		if len(ballots) != 1 {
			t.Errorf("slot %d: %d election records over %d tenants", id, len(ballots), len(first.tenants[id]))
		}
		if len(first.tenants[id]) > 1 {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("no slot changed tenants: the churn retired nothing")
	}
	experiment.RunInto(ws, spec)
	if len(log.ballots) != len(first.ballots) {
		t.Errorf("the rearmed run reached %d slots, the first %d", len(log.ballots), len(first.ballots))
	}
	for id, ballots := range log.ballots {
		for b := range ballots {
			if !first.ballots[id][b] {
				t.Errorf("slot %d: the rearmed run used an election record the first run did not have", id)
			}
		}
	}
	t.Logf("%d slots, %d of them recycled", len(first.ballots), recycled)
}
