package experiment

import (
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// tapRecord is one thing a tap was shown: a cache write, or a change
// (change set, write fields zero).
type tapRecord struct {
	tap           string
	change        bool
	at            sim.Time
	user, manager netsim.NodeID
	version       uint64
}

// tapLog records, in one shared sequence, what every tap was shown.
type tapLog []tapRecord

func (l *tapLog) listener(tap string) discovery.ListenerFunc {
	return func(t sim.Time, user, manager netsim.NodeID, version uint64) {
		*l = append(*l, tapRecord{tap: tap, at: t, user: user, manager: manager, version: version})
	}
}

func (l *tapLog) change(tap string) func() {
	return func() { *l = append(*l, tapRecord{tap: tap, change: true}) }
}

// inStep checks that log is made of consecutive groups, one record per
// tap in taps order, each group showing all taps the same event. It
// returns the events.
func inStep(t *testing.T, log tapLog, taps ...string) []tapRecord {
	t.Helper()
	if len(log)%len(taps) != 0 {
		t.Fatalf("%d records do not split into groups of %d taps", len(log), len(taps))
	}
	var events []tapRecord
	for i := 0; i < len(log); i += len(taps) {
		ev := log[i]
		for j, tap := range taps {
			got := log[i+j]
			got.tap = ev.tap
			if log[i+j].tap != tap || got != ev {
				t.Fatalf("taps out of step at record %d: %+v, want %s shown %+v", i+j, log[i+j], tap, ev)
			}
		}
		events = append(events, ev)
	}
	return events
}

// Two consistency taps and two change taps on one scenario each see
// every cache write and every change, in the order they were added; a
// rearmed run starts with no taps.
func TestTapsAreLists(t *testing.T) {
	p := DefaultParams()
	p.Changes = 2
	spec := RunSpec{System: Frodo2P, Lambda: 0.2, Seed: 3, Params: p}
	ws := NewWorkspace()
	var first tapLog
	spec.Attach = func(sc *Scenario) {
		sc.TapConsistency(first.listener("a"))
		sc.TapConsistency(first.listener("b"))
		sc.TapChange(first.change("a"))
		sc.TapChange(first.change("b"))
	}
	RunInto(ws, spec)
	var writes, changes int
	for _, ev := range inStep(t, first, "a", "b") {
		if ev.change {
			changes++
		} else {
			writes++
		}
	}
	if changes != p.Changes || writes == 0 {
		t.Fatalf("taps saw %d changes and %d cache writes, want %d changes and some writes", changes, writes, p.Changes)
	}

	seen := len(first)
	var second tapLog
	spec.Attach = func(sc *Scenario) { sc.TapConsistency(second.listener("c")) }
	RunInto(ws, spec)
	if len(first) != seen {
		t.Errorf("the rearmed run fed the previous run's taps (%d → %d records)", seen, len(first))
	}
	if len(second) != writes {
		t.Errorf("the rearmed run's tap saw %d cache writes, the same run's first taps %d", len(second), writes)
	}
}

// A spawned User's cache writes reach every consistency tap, then the
// listener it was spawned with.
func TestSpawnedUserFeedsTaps(t *testing.T) {
	sc := Build(UPnP, sim.New(5), 2, Options{})
	var log tapLog
	sc.TapConsistency(log.listener("a"))
	sc.TapConsistency(log.listener("b"))
	var spawned tapLog
	id := netsim.NoNode
	sc.K.At(200*sim.Second, func() {
		id, _ = sc.SpawnUser("spawned", printerQuery, discovery.ListenerFunc(
			func(t sim.Time, user, manager netsim.NodeID, version uint64) {
				log.listener("own")(t, user, manager, version)
				spawned = append(spawned, tapRecord{})
			}))
	})
	sc.K.RunUntil(600 * sim.Second)
	if len(spawned) == 0 {
		t.Fatal("the spawned User never cached the service: the test is vacuous")
	}
	var mine tapLog
	for _, r := range log {
		if r.user == id {
			mine = append(mine, r)
		}
	}
	if events := inStep(t, mine, "a", "b", "own"); len(events) != len(spawned) {
		t.Fatalf("taps saw %d of the spawned User's %d cache writes", len(events), len(spawned))
	}
}
