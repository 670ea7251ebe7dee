package frodo

import (
	"testing"

	"repro/internal/discovery"
	"repro/internal/sim"
)

// TestVouchedBitFollowsEveryUpdater drives one User through each method
// that changes its cache, subActive or lessee, including states whole runs
// reach rarely (a PR4 resubscription, an acknowledgement whose record no
// longer matches, a 3-party subscription whose only cached record is the
// Central's own), and checks after each that the Node's vouched bit is
// what the renewal walk finds. TestBallotMirrorsNode checks the same
// after every delivery of whole runs.
func TestVouchedBitFollowsEveryUpdater(t *testing.T) {
	r := newRig(t, 1, true, 1, TwoPartyConfig())
	r.k.Run(200 * sim.Second)
	nd, u := r.userNodes[0], r.users[0]
	mgr, central := r.managerNode.ID(), r.registryNode.ID()
	if nd.Central() != central || !u.subActive || u.lessee != mgr {
		t.Fatalf("rig not settled: central %d, subscription active=%v at %d", nd.Central(), u.subActive, u.lessee)
	}
	check := func(step string, want bool) {
		t.Helper()
		if bit, walk := nd.VouchBits(); bit != walk || walk != want {
			t.Fatalf("%s: vouched bit %v, renewal walk %v, want %v", step, bit, walk, want)
		}
	}
	stale := discovery.ServiceRecord{Manager: mgr} // matches no query
	check("subscribed at the Manager", false)
	u.onResubscribeRequest(mgr, mgr)
	check("resubscribing (PR4)", true)
	u.onSubscribeAck(mgr, stale)
	check("acknowledged, record not stored", false)

	u.storeRec(discovery.ServiceRecord{Manager: central, SD: printerSD().Freeze()})
	check("the Central's own record cached too", true)
	u.onManagerGone(central, mgr)
	check("Manager purged", true)
	u.subscribe(central, mgr)
	u.onSubscribeAck(central, discovery.ServiceRecord{Manager: mgr})
	check("3-party at the Central, only its record cached", false)
	u.centralLost()
	check("Central lost", true)
	u.stop()
	check("stopped", false)
}
