package frodo

import (
	"testing"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
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
	if !central.IsCentral() || central.Registry().registrations.Len() != 1 {
		t.Fatal("Central with one registration not established")
	}
	rival := r.nw.AddNode("")
	central.Deliver(&netsim.Message{From: rival.ID, To: central.ID(), Multicast: true,
		Packet: wire.Packet{Kind: wire.Announce, Role: wire.RoleRegistry, N: 200}})
	if central.IsCentral() {
		t.Fatal("Central kept its claim against a stronger one")
	}
	if reg := central.Registry(); reg == nil || reg.registrations.Len() != 1 {
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
	if r.nodes[0].Registry().registrations.Len() != 1 {
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
		if nd.IsCentral() || nd.IsBackup() || reg.registrations.Len() != 0 || reg.subs.Len() != 0 ||
			reg.announcer.Running() || reg.backupMonitor.When() != 0 {
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
	if !r.nodes[0].IsCentral() || r.nodes[0].Registry().registrations.Len() != 1 {
		t.Error("rearmed rig did not re-elect the power-80 node with the Manager registered")
	}
}

// The two receive paths every node of a large run takes: an election
// candidacy, of which a boot storm delivers O(N²), is decided from the
// node's 32-byte ballot alone, so a whole build's records stay in the
// per-core cache and a record never straddles a cache line; the Central's
// announcement train, O(N) per period, reads the Node's first cache line
// and nothing past it before the User's renewal pass.
func TestReceivePathLayout(t *testing.T) {
	const line = 64
	if size := unsafe.Sizeof(ballot{}); size > 32 || line%size != 0 {
		t.Errorf("ballot is %d bytes, want at most 32 and a divisor of %d", size, line)
	}
	var nd Node
	for _, f := range []struct {
		name     string
		off, len uintptr
	}{
		{"n", unsafe.Offsetof(nd.n), unsafe.Sizeof(nd.n)},
		{"registry", unsafe.Offsetof(nd.registry), unsafe.Sizeof(nd.registry)},
		{"manager", unsafe.Offsetof(nd.manager), unsafe.Sizeof(nd.manager)},
		{"user", unsafe.Offsetof(nd.user), unsafe.Sizeof(nd.user)},
		{"central", unsafe.Offsetof(nd.central), unsafe.Sizeof(nd.central)},
		{"centralPower", unsafe.Offsetof(nd.centralPower), unsafe.Sizeof(nd.centralPower)},
		{"cfg", unsafe.Offsetof(nd.cfg), unsafe.Sizeof(nd.cfg)},
		{"class", unsafe.Offsetof(nd.class), unsafe.Sizeof(nd.class)},
		{"running", unsafe.Offsetof(nd.running), unsafe.Sizeof(nd.running)},
		{"vouched", unsafe.Offsetof(nd.vouched), unsafe.Sizeof(nd.vouched)},
	} {
		if end := f.off + f.len; end > line {
			t.Errorf("Node.%s ends at byte %d, past the first cache line", f.name, end)
		}
	}
	t.Logf("Node is %d bytes, ballot %d", unsafe.Sizeof(nd), unsafe.Sizeof(ballot{}))
}

// TestUserRoleSizeClass: the User role fits the runtime's 704-byte
// allocation class, which holds 696 bytes of an object with pointers
// past 512 bytes (the rest is the allocation header). The next class is
// 768 bytes, 64 more per User in every cold build, which at N=10k is
// mostly allocation.
func TestUserRoleSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(UserRole{}); size > 696 {
		t.Errorf("UserRole is %d bytes, past the 704-byte allocation class", size)
	}
}
