package frodo

import (
	"math/rand"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// electionRig builds n bare 300D nodes with the given powers, all booting
// within the first second.
type electionRig struct {
	k     *sim.Kernel
	nw    *netsim.Network
	nodes []*Node
}

func newElectionRig(seed int64, powers ...int) *electionRig {
	r := &electionRig{k: sim.New(seed)}
	r.nw = netsim.MustNew(r.k, netsim.DefaultConfig())
	cfg := TwoPartyConfig()
	for _, p := range powers {
		nd := NewNode(r.nw.AddNode(""), &cfg, Class300D, p)
		r.nodes = append(r.nodes, nd)
	}
	for i, nd := range r.nodes {
		nd.Start(sim.Duration(i) * 100 * sim.Millisecond)
	}
	return r
}

func (r *electionRig) centrals() []*Node {
	var out []*Node
	for _, nd := range r.nodes {
		if nd.IsCentral() {
			out = append(out, nd)
		}
	}
	return out
}

func TestElectionConvergesToSingleCentral(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := newElectionRig(seed, 10, 40, 30, 20)
		r.k.Run(60 * sim.Second)
		cs := r.centrals()
		if len(cs) != 1 {
			t.Fatalf("seed %d: %d centrals", seed, len(cs))
		}
		if cs[0] != r.nodes[1] {
			t.Errorf("seed %d: node with power %d won, want the power-40 node", seed, 40)
		}
		for _, nd := range r.nodes {
			if nd.Central() != cs[0].ID() {
				t.Errorf("seed %d: node %v follows %d", seed, nd, nd.Central())
			}
		}
	}
}

func TestElectionTieBrokenByNodeID(t *testing.T) {
	r := newElectionRig(3, 50, 50, 50)
	r.k.Run(60 * sim.Second)
	cs := r.centrals()
	if len(cs) != 1 {
		t.Fatalf("%d centrals after tie", len(cs))
	}
	// Highest node ID wins ties.
	if cs[0] != r.nodes[2] {
		t.Errorf("node %d won the tie, want node 2", cs[0].ID())
	}
}

func TestElectionRestartsWhenWinnerDiesMidElection(t *testing.T) {
	r := newElectionRig(4, 10, 90)
	// The would-be winner (power 90) loses both interfaces right after
	// boot, before it can claim the role.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.nodes[1].ID(), Mode: netsim.FailBoth,
		Start: 200 * sim.Millisecond, Duration: 5000 * sim.Second,
	})
	r.k.Run(120 * sim.Second)
	if !r.nodes[0].IsCentral() {
		t.Error("surviving node did not take the role after the expected winner vanished")
	}
}

func TestLateJoinerAdoptsSittingCentral(t *testing.T) {
	r := newElectionRig(5, 30, 20)
	r.k.Run(60 * sim.Second)
	// A more powerful node joins later: the sitting Central asserts
	// itself in response to the candidacy; the newcomer adopts rather
	// than usurps (stability over strict power order once elected).
	late := NewNode(r.nw.AddNode(""), shared(TwoPartyConfig()), Class300D, 99)
	r.nodes = append(r.nodes, late)
	late.Start(0)
	r.k.Run(180 * sim.Second)
	if len(r.centrals()) != 1 {
		t.Fatalf("%d centrals after late join", len(r.centrals()))
	}
	if late.IsCentral() {
		t.Error("late joiner usurped a healthy Central")
	}
	if late.Central() != r.nodes[0].ID() {
		t.Errorf("late joiner follows %d, want %d", late.Central(), r.nodes[0].ID())
	}
}

func TestBackupAppointmentAndStateSync(t *testing.T) {
	r := newElectionRig(6, 80, 60, 10)
	// Give the future Central a registration to sync.
	mgr := NewNode(r.nw.AddNode(""), shared(TwoPartyConfig()), Class3D, 1)
	mgrRole := mgr.AttachManager(discovery.ServiceDescription{
		DeviceType: "Printer", ServiceType: "ColorPrinter",
		Attributes: map[string]string{"a": "b"},
	})
	mgr.Start(500 * sim.Millisecond)
	r.k.Run(120 * sim.Second)

	if !r.nodes[0].IsCentral() {
		t.Fatal("power-80 node not central")
	}
	if !r.nodes[1].IsBackup() {
		t.Fatal("power-60 node not the backup")
	}
	if r.nodes[2].IsBackup() {
		t.Error("power-10 node should not be backup")
	}
	if !mgrRole.registered {
		t.Fatal("manager not registered")
	}
	// The backup holds the synced registration and serves it after
	// takeover.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.nodes[0].ID(), Mode: netsim.FailBoth,
		Start: 150 * sim.Second, Duration: 5000 * sim.Second,
	})
	r.k.Run(3500 * sim.Second)
	if !r.nodes[1].IsCentral() {
		t.Fatal("backup did not take over")
	}
	if got := r.nodes[1].Registry().registrations.Len(); got != 1 {
		t.Errorf("backup serves %d registrations after takeover, want the synced 1", got)
	}
}

func TestDemotedCentralStopsAnnouncing(t *testing.T) {
	r := newElectionRig(7, 80, 60)
	r.k.Run(60 * sim.Second)
	central, backup := r.nodes[0], r.nodes[1]
	if !central.IsCentral() || !backup.IsBackup() {
		t.Fatal("roles not established")
	}
	// Fail the central long enough for takeover, then revive it; after
	// reconciliation exactly one announcer must be active.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: central.ID(), Mode: netsim.FailBoth,
		Start: 100 * sim.Second, Duration: 3500 * sim.Second, // up at 3600
	})
	r.k.Run(3500 * sim.Second)
	if !backup.IsCentral() {
		t.Fatal("no takeover")
	}
	r.k.Run(8000 * sim.Second)
	if !central.IsCentral() || backup.IsCentral() {
		t.Fatalf("split brain after recovery: central=%v backup=%v",
			central.IsCentral(), backup.IsCentral())
	}
	if backup.Registry().announcer.Running() {
		t.Error("demoted node still announcing as Central")
	}
}

func Test3CManagerRegistersButCannotBeUser(t *testing.T) {
	r := newElectionRig(8, 80)
	sensor := NewNode(r.nw.AddNode("Sensor"), shared(DefaultConfig()), Class3C, 0)
	role := sensor.AttachManager(discovery.ServiceDescription{
		DeviceType: "Sensor", ServiceType: "Temperature",
		Attributes: map[string]string{},
	})
	sensor.Start(500 * sim.Millisecond)
	r.k.Run(120 * sim.Second)
	if !role.registered {
		t.Error("3C manager failed to register")
	}
	if role.sd.Attr(ClassAttr) != "3C" {
		t.Errorf("class attribute = %q", role.sd.Attr(ClassAttr))
	}
	if role.TwoParty() {
		t.Error("3C manager must use 3-party subscription")
	}
}

// backupByLastPower is the rule backupCandidate replaced, kept as the
// reference: remember every peer's last announced power in a map, and at
// appointment time take the maximum by (power, id), skipping self.
func backupByLastPower(self netsim.NodeID, known map[netsim.NodeID]int) netsim.NodeID {
	best, bestPow := netsim.NoNode, -1
	for id, pow := range known {
		if id == self {
			continue
		}
		if pow > bestPow || (pow == bestPow && id > best) {
			best, bestPow = id, pow
		}
	}
	return best
}

// The ballot's running (power, id) maximum must pick the Backup the map
// rule picked, after every prefix of any candidacy stream the harness can
// produce: repeats, ties in power, the node's own ID turning up, and a
// slot re-announcing under a new, stronger tenant. (A slot re-announcing
// WEAKER is outside the invariant — see ballot.onCandidate — and is where
// the two rules would part.)
func TestBackupCandidateMatchesLastPowerMap(t *testing.T) {
	type candidacy struct {
		from  netsim.NodeID
		power int
	}
	check := func(t *testing.T, self netsim.NodeID, stream []candidacy) {
		t.Helper()
		known := map[netsim.NodeID]int{}
		b := ballot{self: int32(self), pick: noCandidate, best: noCandidate}
		for i, c := range stream {
			known[c.from] = c.power
			b.onCandidate(c.from, uint64(c.power))
			if want := backupByLastPower(self, known); b.backupPick() != want {
				t.Fatalf("after %d candidacies %v: running pick %d, map rule %d", i+1, stream[:i+1], b.backupPick(), want)
			}
		}
	}
	for name, stream := range map[string][]candidacy{
		"none":             nil,
		"only self":        {{4, 100}, {4, 100}},
		"tie, higher id":   {{1, 5}, {3, 5}, {2, 5}},
		"tie, repeat":      {{3, 5}, {1, 5}, {3, 5}, {1, 5}},
		"stronger later":   {{7, 1}, {2, 50}, {9, 10}},
		"slot upgraded":    {{6, 1}, {8, 1}, {6, 5}, {8, 1}},
		"self is stronger": {{1, 10}, {4, 100}, {2, 10}},
		"power zero":       {{1, 0}, {0, 0}},
	} {
		t.Run(name, func(t *testing.T) { check(t, 4, stream) })
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		ids := 1 + rng.Intn(12)
		self := netsim.NodeID(rng.Intn(ids))
		powers := make([]int, ids) // each slot's current tenant
		for i := range powers {
			powers[i] = []int{1, 1, 1, 5, 10, 50, 100}[rng.Intn(7)]
		}
		stream := make([]candidacy, rng.Intn(60))
		for i := range stream {
			id := rng.Intn(ids)
			if rng.Intn(8) == 0 { // the slot changes hands, never to a weaker tenant
				powers[id] += rng.Intn(3) * 4
			}
			stream[i] = candidacy{netsim.NodeID(id), powers[id]}
		}
		check(t, self, stream)
	}
}

// Rearm must forget the previous run's Backup candidate, as it cleared
// the map the candidate replaced: a reused workspace appoints from the
// candidacies of its own run only.
func TestRearmForgetsBackupCandidate(t *testing.T) {
	r := newElectionRig(6, 80, 60, 10)
	r.k.Run(120 * sim.Second)
	if got := r.nodes[0].rec.pick; got.id != int32(r.nodes[1].ID()) || got.power != 60 {
		t.Fatalf("Central's Backup candidate is %+v, want the power-60 node %d", got, r.nodes[1].ID())
	}
	r.k.Reset(6)
	r.nw.Rearm(r.k, netsim.DefaultConfig(), len(r.nodes))
	for _, nd := range r.nodes {
		nd.Rearm()
		if nd.rec.pick != noCandidate {
			t.Errorf("node %d kept Backup candidate %+v across Rearm", nd.ID(), nd.rec.pick)
		}
	}
}

// A fleet's slots map one to one onto the cells of its chunks, in slot
// order, whatever order the slots are first asked for in.
func TestFleetSlotsTileChunks(t *testing.T) {
	const slots = 3*ballotsMax + ballotsDoubled
	f := NewFleet(DefaultConfig())
	seen := map[*ballot]bool{}
	for _, id := range []netsim.NodeID{slots - 1, 0} {
		f.ballot(id)
	}
	for id := 0; id < slots; id++ {
		b := f.ballot(netsim.NodeID(id))
		if seen[b] {
			t.Fatalf("slot %d shares a record with an earlier slot", id)
		}
		seen[b] = true
		if b != f.ballot(netsim.NodeID(id)) {
			t.Fatalf("slot %d has no fixed record", id)
		}
	}
	cells := 0
	for k, c := range f.chunks {
		if want := min(ballotsMin<<k, ballotsMax); len(c) != want {
			t.Errorf("chunk %d holds %d records, want %d", k, len(c), want)
		}
		cells += len(c)
		if k > 0 && &c[0] == &f.chunks[k-1][0] {
			t.Errorf("chunk %d repeats chunk %d", k, k-1)
		}
	}
	if cells != slots {
		t.Errorf("%d slots took %d cells", slots, cells)
	}
}
