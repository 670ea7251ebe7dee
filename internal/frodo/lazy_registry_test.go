package frodo

import (
	"testing"
	"unsafe"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// A 300D node that was never elected nor appointed carries no Registry
// capability, and nothing about it says otherwise.
func TestNeverElectedNodeHasNoRegistry(t *testing.T) {
	r := newElectionRig(6, 80, 60, 10)
	r.k.Run(120 * sim.Second)
	central, backup, idle := r.nodes[0], r.nodes[1], r.nodes[2]
	if !central.IsCentral() || central.Registry() == nil {
		t.Fatal("power-80 node is not a Central with a Registry capability")
	}
	if !backup.IsBackup() || backup.Registry() == nil {
		t.Fatal("power-60 node is not a Backup with a Registry capability")
	}
	if idle.Registry() != nil {
		t.Error("never-elected node materialised a Registry capability")
	}
	if idle.IsCentral() || idle.IsBackup() {
		t.Errorf("never-elected node reports Central=%v Backup=%v", idle.IsCentral(), idle.IsBackup())
	}
	if !idle.Detach() {
		t.Error("never-elected node declined Detach")
	}
	if central.Detach() || backup.Detach() {
		t.Error("Central or Backup agreed to Detach")
	}
}

// Demotion keeps the capability and its tables: a re-elected node resumes
// with its last known state.
func TestDemotedCentralKeepsTables(t *testing.T) {
	r := newElectionRig(6, 80)
	mgr := NewNode(r.nw.AddNode(""), shared(TwoPartyConfig()), Class3D, 1)
	mgr.AttachManager(printerSD())
	mgr.Start(500 * sim.Millisecond)
	r.k.Run(120 * sim.Second)
	central := r.nodes[0]
	if !central.IsCentral() || central.Registry().Registrations() != 1 {
		t.Fatal("Central with one registration not established")
	}
	rival := r.nw.AddNode("")
	central.Deliver(&netsim.Message{From: rival.ID, To: central.ID(), Multicast: true,
		Payload: discovery.Announce{Role: discovery.RoleRegistry, Power: 200}})
	if central.IsCentral() {
		t.Fatal("Central kept its claim against a stronger one")
	}
	if reg := central.Registry(); reg == nil || reg.Registrations() != 1 {
		t.Errorf("demoted Central lost its repository: %v", reg)
	}
}

// Rearm returns a once-elected node's capability to pristine — not to nil,
// the next run's election reuses its capacity — and leaves a node that
// never had one without.
func TestRearmKeepsPristineRegistry(t *testing.T) {
	r := newElectionRig(6, 80, 60, 10)
	mgr := NewNode(r.nw.AddNode(""), shared(TwoPartyConfig()), Class3D, 1)
	mgr.AttachManager(printerSD())
	mgr.Start(500 * sim.Millisecond)
	r.k.Run(120 * sim.Second)
	if r.nodes[0].Registry().Registrations() != 1 {
		t.Fatal("Central holds no registration before Rearm")
	}
	r.k.Reset(6)
	r.nw.Rearm(r.k, netsim.DefaultConfig(), len(r.nodes)+1)
	for _, nd := range append(r.nodes, mgr) {
		nd.Rearm()
	}
	for _, nd := range r.nodes[:2] {
		reg := nd.Registry()
		if reg == nil {
			t.Fatalf("node %d lost its Registry capability across Rearm", nd.ID())
		}
		if nd.IsCentral() || nd.IsBackup() || reg.Registrations() != 0 || reg.Subscriptions() != 0 ||
			reg.announcer.Running() || reg.backupMonitor.Armed() {
			t.Errorf("node %d's Registry capability is not pristine after Rearm", nd.ID())
		}
	}
	if r.nodes[2].Registry() != nil {
		t.Error("Rearm materialised a Registry capability on a never-elected node")
	}
	// The rearmed rig elects again, on the kept capability.
	for i, nd := range r.nodes {
		nd.Start(sim.Duration(i) * 100 * sim.Millisecond)
	}
	mgr.Start(500 * sim.Millisecond)
	r.k.Run(120 * sim.Second)
	if !r.nodes[0].IsCentral() || r.nodes[0].Registry().Registrations() != 1 {
		t.Error("rearmed rig did not re-elect the power-80 node with the Manager registered")
	}
}

// The two O(N²) receive paths of a large run — an election candidacy and
// a multicast search, each delivered to every node — must decide "not for
// me" from the Node's first cache line: the fields they read sit in its
// first 64 bytes. Node IDs and powers are 8 bytes each, so the Central
// belief (central, centralPower) and the User role, read only on the
// Central's O(N)-per-period announcement path, start the second line.
func TestNodeReceivePathFitsCacheLine(t *testing.T) {
	var nd Node
	const line = 64
	for _, f := range []struct {
		name     string
		off, len uintptr
	}{
		{"n", unsafe.Offsetof(nd.n), unsafe.Sizeof(nd.n)},
		{"registry", unsafe.Offsetof(nd.registry), unsafe.Sizeof(nd.registry)},
		{"manager", unsafe.Offsetof(nd.manager), unsafe.Sizeof(nd.manager)},
		{"backupPick", unsafe.Offsetof(nd.backupPick), unsafe.Sizeof(nd.backupPick)},
		{"elector.bestID", unsafe.Offsetof(nd.elector) + unsafe.Offsetof(nd.elector.bestID), unsafe.Sizeof(nd.elector.bestID)},
		{"elector.bestPow", unsafe.Offsetof(nd.elector) + unsafe.Offsetof(nd.elector.bestPow), unsafe.Sizeof(nd.elector.bestPow)},
		{"elector.running", unsafe.Offsetof(nd.elector) + unsafe.Offsetof(nd.elector.running), unsafe.Sizeof(nd.elector.running)},
	} {
		if end := f.off + f.len; end > line {
			t.Errorf("Node.%s ends at byte %d, past the first cache line", f.name, end)
		}
	}
	// The Central-announcement path's fields fill the second line.
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"user", unsafe.Offsetof(nd.user) + unsafe.Sizeof(nd.user)},
		{"central", unsafe.Offsetof(nd.central) + unsafe.Sizeof(nd.central)},
		{"centralPower", unsafe.Offsetof(nd.centralPower) + unsafe.Sizeof(nd.centralPower)},
		{"class", unsafe.Offsetof(nd.class) + unsafe.Sizeof(nd.class)},
	} {
		if f.end > 2*line {
			t.Errorf("Node.%s ends at byte %d, past the second cache line", f.name, f.end)
		}
	}
	t.Logf("Node is %d bytes", unsafe.Sizeof(nd))
}
