package experiment

import (
	"runtime"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTelemetryParity pins the tentpole's central promise: metering a
// run changes nothing about it. The PR-2 golden sweep re-run with a
// registry installed (both through the process default and the spec
// field) must produce the exact fingerprint the unmetered sweep is
// pinned to — telemetry draws no randomness and perturbs no schedule.
func TestTelemetryParity(t *testing.T) {
	p := DefaultParams()
	p.Runs = 2
	p.Lambdas = []float64{0, 0.3}
	p.Topology = Topology{Users: 100}
	p.Churn = Churn{Departures: 0.4, MeanAbsence: 600 * sim.Second, Arrivals: 5}

	reg := obs.NewRegistry()
	SetTelemetry(reg)
	defer SetTelemetry(nil)
	fp := sweepFingerprint(Sweep(SweepConfig{
		Systems: []System{Frodo2P}, Params: p,
		Workers: runtime.GOMAXPROCS(0), RetainRaw: true,
	}))
	if fp != pr2SweepGolden {
		t.Errorf("metered sweep fingerprint %s != golden %s — telemetry perturbed the run", fp, pr2SweepGolden)
	}
	// And the metering actually happened.
	if sent := reg.Counter("sd_frames_sent_total", "shard", "0").Load(); sent == 0 {
		t.Error("telemetry enabled but sd_frames_sent_total{shard=0} stayed 0")
	}
	if ev := reg.Gauge("sd_kernel_events", "shard", "0").Load(); ev == 0 {
		t.Error("telemetry enabled but sd_kernel_events{shard=0} stayed 0")
	}
	// The exact series external readers scrape (the benchmark's per-User
	// delivery and event rows among them) exist under these names, with
	// the shard="0" label, and carry counts.
	snap := reg.Snapshot()
	for _, series := range []string{
		`sd_frames_sent_total{shard="0"}`,
		`sd_frames_delivered_total{shard="0"}`,
		`sd_frames_dropped_total{shard="0"}`,
		`sd_lease_renewals_total{shard="0"}`,
		`sd_kernel_events{shard="0"}`,
		`sd_kernel_pending{shard="0"}`,
	} {
		v, ok := snap[series]
		if !ok {
			t.Errorf("metered sweep registered no %s", series)
		} else if v == uint64(0) || v == int64(0) {
			t.Errorf("%s reads 0 after a metered sweep", series)
		}
	}
}

// kindTally counts delivered frames by their Kind name.
type kindTally map[string]uint64

func (k kindTally) MessageSent(sim.Time, *netsim.Message)            {}
func (k kindTally) MessageDelivered(_ sim.Time, m *netsim.Message)   { k[m.Kind]++ }
func (k kindTally) MessageDropped(sim.Time, *netsim.Message, string) {}
func (k kindTally) NodeEvent(sim.Time, netsim.NodeID, string)        {}

// TestLeaseCountersCountTheirFrames: the lease series switch on the
// packet's kind tag, and must count exactly the delivered frames named
// SubscriptionRenew and RenewError — the frames they counted by name.
func TestLeaseCountersCountTheirFrames(t *testing.T) {
	var refused uint64
	for _, sys := range []System{UPnP, Jini1, Frodo3P, Frodo2P} {
		reg, tally := obs.NewRegistry(), kindTally{}
		Run(RunSpec{System: sys, Lambda: 0.5, Seed: 3, Params: DefaultParams(), Telemetry: reg,
			MakeTracer: func(*netsim.Network) netsim.Tracer { return tally }})
		renewals := reg.Counter("sd_lease_renewals_total", "shard", "0").Load()
		refusals := reg.Counter("sd_lease_refusals_total", "shard", "0").Load()
		if renewals == 0 || renewals != tally["SubscriptionRenew"] {
			t.Errorf("%v: sd_lease_renewals_total = %d, %d SubscriptionRenew frames delivered",
				sys, renewals, tally["SubscriptionRenew"])
		}
		if refusals != tally["RenewError"] {
			t.Errorf("%v: sd_lease_refusals_total = %d, %d RenewError frames delivered",
				sys, refusals, tally["RenewError"])
		}
		refused += tally["RenewError"]
	}
	if refused == 0 {
		t.Error("no run delivered a RenewError: the refusal check is vacuous")
	}
}

// TestTelemetrySpecOverridesDefault: a spec-level registry wins over
// the process default, and unmetered runs touch neither.
func TestTelemetrySpecOverridesDefault(t *testing.T) {
	def, own := obs.NewRegistry(), obs.NewRegistry()
	SetTelemetry(def)
	defer SetTelemetry(nil)
	p := DefaultParams()
	p.Runs = 1
	p.RunDuration = 600 * sim.Second
	p.ChangeMax = 300 * sim.Second
	Run(RunSpec{System: Frodo2P, Seed: 7, Params: p, Telemetry: own})
	if got := def.Counter("sd_frames_sent_total", "shard", "0").Load(); got != 0 {
		t.Errorf("default registry metered %d frames despite spec override", got)
	}
	if got := own.Counter("sd_frames_sent_total", "shard", "0").Load(); got == 0 {
		t.Error("spec registry metered nothing")
	}
}

// TestShardedTelemetryParity: a spec carrying Shards (ignored) gives the
// same run metered and unmetered, field for field.
func TestShardedTelemetryParity(t *testing.T) {
	p := DefaultParams()
	p.Runs = 1
	p.RunDuration = 1200 * sim.Second
	p.ChangeMax = 600 * sim.Second
	p.Topology = Topology{Users: 12}
	spec := RunSpec{System: Frodo2P, Seed: 11, Params: p, Shards: 3}
	bare := Run(spec)
	spec.Telemetry = obs.NewRegistry()
	metered := Run(spec)
	if bare.ChangeAt != metered.ChangeAt || bare.Effort != metered.Effort ||
		bare.TotalDiscoverySends != metered.TotalDiscoverySends ||
		bare.TotalTransport != metered.TotalTransport ||
		len(bare.Users) != len(metered.Users) {
		t.Fatalf("metering changed the run:\nbare    %+v\nmetered %+v", bare, metered)
	}
	for i := range bare.Users {
		if bare.Users[i] != metered.Users[i] {
			t.Fatalf("user %d outcome differs: %+v vs %+v", i, bare.Users[i], metered.Users[i])
		}
	}
}
