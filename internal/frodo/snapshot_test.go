package frodo

import (
	"testing"

	"repro/internal/sim"
)

// TestCachedSnapshotSurvivesChangeService covers both FRODO subscription
// modes: snapshots held by User caches and by the Central's repository
// are immutable, so a ChangeService (copy-on-write) can never be seen
// through a previously obtained record.
func TestCachedSnapshotSurvivesChangeService(t *testing.T) {
	for _, mode := range []struct {
		name     string
		twoParty bool
		cfg      Config
	}{
		{"3party", false, DefaultConfig()},
		{"2party", true, TwoPartyConfig()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			r := newRig(t, 11, mode.twoParty, 2, mode.cfg)
			r.k.Run(200 * sim.Second)
			u := r.users[0]

			userRec, ok := u.cache.Get(r.manager.ID())
			if !ok || userRec.SD.Version() != 1 {
				t.Fatalf("user did not cache v1: %+v ok=%v", userRec, ok)
			}
			centralRec, ok := r.registryNode.Registry().registrations.Get(r.manager.ID())
			if !ok || centralRec.SD.Version() != 1 {
				t.Fatalf("central does not hold v1: %+v ok=%v", centralRec, ok)
			}
			v1User, v1Central := userRec.SD, centralRec.SD
			rendered := v1User.String()

			r.change()
			r.k.Run(400 * sim.Second)

			if v1User.Version() != 1 || v1User.Attr("PaperTray") != "full" || v1User.String() != rendered {
				t.Errorf("ChangeService mutated the user's old snapshot: %v", v1User)
			}
			if v1Central.Version() != 1 || v1Central.Attr("PaperTray") != "full" {
				t.Errorf("ChangeService mutated the central's old snapshot: %v", v1Central)
			}
			nowUser, _ := u.cache.Get(r.manager.ID())
			nowCentral, _ := r.registryNode.Registry().registrations.Get(r.manager.ID())
			if nowUser.SD.Version() != 2 || nowCentral.SD.Version() != 2 {
				t.Fatalf("v2 did not propagate: user=%v central=%v", nowUser.SD, nowCentral.SD)
			}
			if nowUser.SD != r.manager.sd || nowCentral.SD != r.manager.sd {
				t.Error("v2 snapshot should be one shared instance across the stack")
			}
		})
	}
}
