package frodo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// CM2 in FRODO: the User's persistent Get requests retrieve the current
// description from its lessee. With SRN2 ablated, polling is the only
// repair for a missed update under a surviving subscription — and it
// works in both subscription modes.
func TestPollingRepairsWithoutSRN2(t *testing.T) {
	for _, twoParty := range []bool{false, true} {
		cfg := DefaultConfig()
		if twoParty {
			cfg = TwoPartyConfig()
		}
		cfg.PollPeriod = 600 * sim.Second
		cfg.Techniques = cfg.Techniques.Without(core.SRN2)
		r := newRig(t, 53, twoParty, 1, cfg)
		u := r.users[0]
		r.nw.ScheduleFailure(netsim.InterfaceFailure{
			Node: u.ID(), Mode: netsim.FailBoth,
			Start: 2023 * sim.Second, Duration: 810 * sim.Second,
		})
		r.k.At(2507*sim.Second, r.change)
		r.k.Run(5400 * sim.Second)
		at, ok := r.whenConsistent(u, 2)
		if !ok {
			t.Fatalf("twoParty=%v: polling did not repair the missed update", twoParty)
		}
		if at > 2833*sim.Second+650*sim.Second {
			t.Errorf("twoParty=%v: repaired at %v, want within one poll period of 2833s", twoParty, at)
		}
	}
}

// Polling traffic counts toward the update effort: a polling FRODO user
// burns Get/GetReply pairs even when nothing changes — the redundancy
// §4.2 warns about.
func TestPollingTrafficIsCounted(t *testing.T) {
	cfg := TwoPartyConfig()
	cfg.PollPeriod = 600 * sim.Second
	r := newRig(t, 54, true, 1, cfg)
	r.k.Run(5400 * sim.Second)
	gets := r.nw.Counters().PerKind()["Get"]
	if gets < 7 {
		t.Errorf("only %d Gets over 5400s at 600s poll period", gets)
	}
	replies := r.nw.Counters().PerKind()["GetReply"]
	if replies < 7 {
		t.Errorf("only %d GetReplies", replies)
	}
}
