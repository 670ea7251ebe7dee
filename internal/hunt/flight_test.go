package hunt

import (
	"testing"
)

// A hunted (dirty-by-construction) fixture's replay must freeze its
// flight recorder at the first violation: the snapshot carries the
// freeze reason and a non-empty ring of the events leading up to the
// breach.
func TestReplayTracedFreezesOnViolation(t *testing.T) {
	f, err := LoadFixture("testdata/hunted-frodo2p-lease-purge.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, snap, err := Replay(f)
	if err != nil {
		t.Fatalf("hunted fixture no longer reproduces: %v", err)
	}
	if rep.Total == 0 {
		t.Fatal("hunted fixture replayed clean")
	}
	if snap.Frozen == "" {
		t.Fatal("violation did not freeze the recorder")
	}
	if len(snap.Events) == 0 {
		t.Error("recorder froze with an empty ring")
	}
}

// A clean fixture's replay returns an unfrozen ring that recorded the
// run.
func TestReplayTracedCleanFixture(t *testing.T) {
	f, err := LoadFixture("testdata/clean-flashcrowd-racks.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, snap, err := Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean fixture reported %s", rep)
	}
	if snap.Frozen != "" {
		t.Errorf("clean replay froze the recorder: %s", snap.Frozen)
	}
	if snap.Total == 0 {
		t.Error("the recorder recorded no events")
	}
}
