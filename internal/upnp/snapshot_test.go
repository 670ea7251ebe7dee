package upnp

import (
	"testing"

	"repro/internal/sim"
)

// TestCachedSnapshotSurvivesChangeService is the aliasing guarantee at
// the protocol level: once a User cached a record, a later ChangeService
// on the Manager — which mutates the service copy-on-write — must never
// be visible through that cached snapshot. The User only observes the new
// version by receiving it.
func TestCachedSnapshotSurvivesChangeService(t *testing.T) {
	r := newRig(t, 11, 2, DefaultConfig())
	r.k.Run(200 * sim.Second)
	u := r.users[0]

	rec, ok := u.cache.Get(r.manager.ID())
	if !ok || rec.SD.Version() != 1 {
		t.Fatalf("user did not cache v1: %+v ok=%v", rec, ok)
	}
	v1 := rec.SD
	rendered := v1.String()

	r.change() // v2: PaperTray=empty, new snapshot
	r.k.Run(400 * sim.Second)

	if v1.Version() != 1 || v1.Attr("PaperTray") != "full" || v1.String() != rendered {
		t.Errorf("ChangeService mutated a previously cached snapshot: %v", v1)
	}
	now, _ := u.cache.Get(r.manager.ID())
	if now.SD.Version() != 2 || now.SD.Attr("PaperTray") != "empty" {
		t.Errorf("user did not converge on the v2 snapshot: %v", now.SD)
	}
	if now.SD == v1 {
		t.Error("v2 record shares the v1 snapshot pointer")
	}
	// The manager's live snapshot is shared with the cache, by design.
	if now.SD != r.manager.sd {
		t.Error("cache should share the Manager's current snapshot by reference")
	}
}
