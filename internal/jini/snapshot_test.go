package jini

import (
	"testing"

	"repro/internal/sim"
)

// TestCachedSnapshotSurvivesChangeService is the aliasing guarantee at
// the protocol level: snapshots cached by Users and stored in Registry
// repositories are immutable, so a later ChangeService (copy-on-write on
// the Manager) can never be visible through them.
func TestCachedSnapshotSurvivesChangeService(t *testing.T) {
	r := newRig(t, 11, 1, 2, DefaultConfig())
	r.k.Run(200 * sim.Second)
	u := r.users[0]
	reg := r.registries[0]

	userRec, ok := u.cache.Get(r.manager.ID())
	if !ok || userRec.SD.Version() != 1 {
		t.Fatalf("user did not cache v1: %+v ok=%v", userRec, ok)
	}
	regRec, ok := reg.registrations.Get(r.manager.ID())
	if !ok || regRec.SD.Version() != 1 {
		t.Fatalf("registry does not hold v1: %+v ok=%v", regRec, ok)
	}
	v1User, v1Reg := userRec.SD, regRec.SD
	rendered := v1User.String()

	r.change() // v2, propagated Manager → Registry → subscribed Users
	r.k.Run(400 * sim.Second)

	if v1User.Version() != 1 || v1User.Attr("PaperTray") != "full" || v1User.String() != rendered {
		t.Errorf("ChangeService mutated the user's old snapshot: %v", v1User)
	}
	if v1Reg.Version() != 1 || v1Reg.Attr("PaperTray") != "full" {
		t.Errorf("ChangeService mutated the registry's old snapshot: %v", v1Reg)
	}
	nowUser, _ := u.cache.Get(r.manager.ID())
	nowReg, _ := reg.registrations.Get(r.manager.ID())
	if nowUser.SD.Version() != 2 || nowReg.SD.Version() != 2 {
		t.Fatalf("v2 did not propagate: user=%v registry=%v", nowUser.SD, nowReg.SD)
	}
	// Registry repository and User cache share the one v2 snapshot the
	// Manager built — by reference, no copies anywhere on the path.
	if nowUser.SD != nowReg.SD || nowReg.SD != r.manager.sd {
		t.Error("v2 snapshot should be one shared instance across the stack")
	}
}
