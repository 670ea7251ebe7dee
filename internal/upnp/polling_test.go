package upnp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func pollingConfig(period sim.Duration) Config {
	cfg := DefaultConfig()
	cfg.PollPeriod = period
	return cfg
}

// CM2 repairs the §6.2 scenario that CM1 alone cannot: the User's
// persistent polling retrieves the updated description after recovery —
// "periodic polling is the more effective method if the application
// allows persistent polling" (Dabrowski and Mills, quoted in §4.2).
func TestPollingRepairsTheSRN2CaseStudy(t *testing.T) {
	r := newRig(t, 50, 1, pollingConfig(600*sim.Second))
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailBoth,
		Start: 2023 * sim.Second, Duration: 810 * sim.Second, // up at 2833
	})
	r.k.At(2507*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("polling did not repair the missed notification")
	}
	// The first poll after recovery at 2833s lands within one poll
	// period plus the REX latency of the poll in flight when the outage
	// ended.
	if at > 2833*sim.Second+750*sim.Second {
		t.Errorf("repaired at %v, want within ~one poll period of recovery", at)
	}
}

// Polling is slower than notification on the happy path: the update
// arrives on the next poll tick rather than immediately.
func TestPollingAloneIsSlowerThanNotification(t *testing.T) {
	// Disable eventing entirely by never subscribing: ablate PR4/PR5 has
	// no effect on eventing, so instead compare delivery times with a
	// user that got its NOTIFY (immediate) vs the poll grid.
	r := newRig(t, 51, 1, pollingConfig(600*sim.Second))
	u := r.users[0]
	r.k.At(1000*sim.Second, r.change)
	r.k.Run(1100 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("user never consistent")
	}
	// With eventing on, notification wins the race against the poll.
	if at > 1001*sim.Second {
		t.Errorf("notification path took %v; polling should not delay it", at)
	}
}

// "Polling is also a less efficient mechanism than update notification in
// scenarios where services rarely change, causing multiple redundant
// polls": quantify the redundant traffic of one polling user over a
// quiet run.
func TestPollingCostsRedundantMessages(t *testing.T) {
	quiet := newRig(t, 52, 1, DefaultConfig())
	quiet.k.Run(5400 * sim.Second)
	baseline := quiet.nw.Counters().PerKind()["Get"]

	polling := newRig(t, 52, 1, pollingConfig(600*sim.Second))
	polling.k.Run(5400 * sim.Second)
	polled := polling.nw.Counters().PerKind()["Get"]

	// ~9 poll GETs minus whatever the baseline needed (initial fetch).
	extra := polled - baseline
	if extra < 6 {
		t.Errorf("polling added only %d GETs over 5400s at 600s period", extra)
	}
}
