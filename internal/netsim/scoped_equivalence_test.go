package netsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/frodo"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/verify"
)

// traceDigest folds every trace event — what netsim.Recorder prints, at
// full nanosecond resolution — into a count and an FNV-1a hash, so two
// runs can be compared frame for frame without keeping either log.
type traceDigest struct {
	events int
	h      uint64
}

func (d *traceDigest) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ v&0xff) * 1099511628211
		v >>= 8
	}
}

func (d *traceDigest) text(s string) {
	for i := 0; i < len(s); i++ {
		d.h = (d.h ^ uint64(s[i])) * 1099511628211
	}
}

func (d *traceDigest) frame(what string, t sim.Time, m *netsim.Message, reason string) {
	d.events++
	d.text(what)
	d.word(uint64(t))
	d.text(m.Kind)
	d.word(uint64(m.From))
	d.word(uint64(m.To))
	d.word(uint64(m.Transport))
	d.text(reason)
}

func (d *traceDigest) MessageSent(t sim.Time, m *netsim.Message)      { d.frame("send", t, m, "") }
func (d *traceDigest) MessageDelivered(t sim.Time, m *netsim.Message) { d.frame("recv", t, m, "") }
func (d *traceDigest) MessageDropped(t sim.Time, m *netsim.Message, reason string) {
	d.frame("drop", t, m, reason)
}
func (d *traceDigest) NodeEvent(t sim.Time, node netsim.NodeID, event string) {
	d.events++
	d.text("node")
	d.word(uint64(t))
	d.word(uint64(node))
	d.text(event)
}

// observed is everything a run shows an observer: the metrics, the
// oracle's audit, and the digest of the handled frames.
type observed struct {
	Result metrics.RunResult
	Report verify.OracleReport
	Trace  traceDigest
	// Withheld counts, on the reference, the deliveries and drops that
	// exist only because everyone listens.
	Withheld int
}

// observe runs spec in ws under the oracle and a trace digest. As the
// reference, every node listens to everything (ListenToEverything) and
// the digest sees only what a scoped network would have shown it.
func observe(ws *experiment.Workspace, spec experiment.RunSpec, reference bool) observed {
	digest := &traceDigest{h: 14695981039346656037}
	var widened netsim.Tracer
	spec.MakeTracer = func(nw *netsim.Network) netsim.Tracer {
		if reference {
			widened = netsim.ListenToEverything(nw, digest)
			return widened
		}
		return digest
	}
	cfg := verify.DefaultOracleConfig(spec.System)
	cfg.Partitions = spec.Params.Partitions
	var o *verify.Oracle
	mutate := spec.Attach
	spec.Attach = func(sc *experiment.Scenario) {
		if mutate != nil {
			mutate(sc)
		}
		o = verify.AttachOracle(sc, cfg)
	}
	out := observed{Result: experiment.RunInto(ws, spec)}
	out.Report = o.Report()
	out.Trace = *digest
	if widened != nil {
		out.Withheld = netsim.Withheld(widened)
	}
	return out
}

// scopedSpec is the paper's 5400 s design with 40 Users: no failures,
// λ = 0.3, λ = 0.6 (an outage outlasts the Backup timeout and every
// Registry lease, so Backups take over, elections re-run and Users fall
// back to multicast search), churn, and churn with a flash crowd, a
// bisecting partition and rack failures on top.
func scopedSpec(sys experiment.System, dynamics string, seed int64, harden bool) experiment.RunSpec {
	p := experiment.DefaultParams()
	p.Topology.Users = 40
	spec := experiment.RunSpec{System: sys, Seed: seed, Opts: experiment.Options{Hardened: harden}}
	switch dynamics {
	case "lambda=0.3":
		spec.Lambda = 0.30
	case "takeover":
		spec.Lambda = 0.60
	case "churn", "churn+flash+bisect+racks":
		spec.Lambda = 0.30
		p.Churn = experiment.Churn{Departures: 1.5, MeanAbsence: 600 * sim.Second, Arrivals: 8}
	}
	if dynamics == "churn+flash+bisect+racks" {
		p.FlashCrowds = []experiment.FlashCrowd{{At: 1500 * sim.Second, Users: 12, Window: 60 * sim.Second}}
		p.Partitions = []netsim.Partition{{Start: 800 * sim.Second, Duration: 300 * sim.Second, Bisect: true}}
		p.RackFailures = netsim.RackPlanConfig{
			Racks: 8, Fail: 2,
			WindowStart: 150 * sim.Second, WindowEnd: 2400 * sim.Second,
			Duration: 300 * sim.Second, Spread: 5 * sim.Second,
		}
	}
	spec.Params = p
	return spec
}

var scopedDynamics = []string{"lambda=0", "lambda=0.3", "takeover", "churn", "churn+flash+bisect+racks"}

// eachScopedCell visits the equivalence matrix: five systems ×
// baseline/hardened × the dynamics × 3 seeds.
func eachScopedCell(fn func(name string, spec experiment.RunSpec)) {
	for _, sys := range experiment.Systems() {
		for _, harden := range []bool{false, true} {
			for _, dynamics := range scopedDynamics {
				for seed := int64(42); seed <= 44; seed++ {
					fn(fmt.Sprintf("%s/harden=%v/%s/seed%d", sys.Short(), harden, dynamics, seed),
						scopedSpec(sys, dynamics, seed, harden))
				}
			}
		}
	}
}

// differs runs the cell as the everyone-listens reference and as spec
// stands, cold and rearmed, and reports the first observable difference,
// and how many frames the reference had that scoping removes.
func differs(spec experiment.RunSpec) (diff string, withheld int) {
	refWS, gotWS := experiment.NewWorkspace(), experiment.NewWorkspace()
	reference := spec
	reference.Attach = nil // a planted mutant is the subject, never the reference
	want := observe(refWS, reference, true)
	for _, run := range []struct {
		how string
		got observed
	}{
		{"the reference, rearmed", observe(refWS, reference, true)},
		{"scoped, cold", observe(gotWS, spec, false)},
		{"scoped, rearmed", observe(gotWS, spec, false)},
	} {
		switch {
		case !reflect.DeepEqual(run.got.Result, want.Result):
			return fmt.Sprintf("%s: RunResult differs from the reference's cold run:\n got  %+v\n want %+v", run.how, run.got.Result, want.Result), want.Withheld
		case !reflect.DeepEqual(run.got.Report, want.Report):
			return fmt.Sprintf("%s: oracle report differs from the reference's cold run:\n got  %v\n want %v", run.how, run.got.Report, want.Report), want.Withheld
		case run.got.Withheld != want.Withheld && run.how == "the reference, rearmed":
			return fmt.Sprintf("%s: withheld %d frames, %d cold", run.how, run.got.Withheld, want.Withheld), want.Withheld
		case !reflect.DeepEqual(run.got.Trace, want.Trace):
			return fmt.Sprintf("%s: handled frames differ from the reference's cold run: %+v, want %+v", run.how, run.got.Trace, want.Trace), want.Withheld
		}
	}
	if want.Trace.events == 0 {
		return "the trace digest saw no frames", want.Withheld
	}
	return "", want.Withheld
}

// TestScopedFanoutMatchesEveryoneListening: handing a multicast frame
// only to the members that listen for its topic gives the run that
// handing it to everyone gave — same RunResult, same oracle audit, and
// the same send, delivery and drop of every frame somebody handles, to
// the nanosecond — for every system, hardened or not, static or churning,
// through a cold build and a rearm.
func TestScopedFanoutMatchesEveryoneListening(t *testing.T) {
	withheld := map[experiment.System]int{}
	eachScopedCell(func(name string, spec experiment.RunSpec) {
		diff, n := differs(spec)
		if diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
		withheld[spec.System] += n
	})
	// The reference is one: with everyone listening each system carries
	// frames that scoping removes. (Except Jini with one Registry — the
	// only multicast sender, and everybody else listens to it.)
	for _, sys := range experiment.Systems() {
		if (withheld[sys] == 0) != (sys == experiment.Jini1) {
			t.Errorf("%s: the reference had %d frames that scoping removes", sys.Short(), withheld[sys])
		}
	}
}

// redeclare plants a wrong declaration on every boot-time FRODO device
// the predicate picks, and counts the devices it planted on.
func redeclare(pick func(*frodo.Node) bool, listens netsim.TopicSet, planted *int) func(*experiment.Scenario) {
	return func(sc *experiment.Scenario) {
		for _, id := range sc.AllNodeIDs() {
			if nd := frodo.NodeOf(sc.Net.Node(id).Endpoint()); nd != nil && pick(nd) {
				sc.Net.JoinTopics(id, frodo.DiscoveryGroup, listens)
				*planted++
			}
		}
	}
}

// The equivalence has teeth: a Manager wrongly declared deaf to multicast
// searches, or 300D Users wrongly declared deaf to election candidacies,
// give a different run in every FRODO 2-party cell.
func TestScopedFanoutCatchesWrongDeclarations(t *testing.T) {
	var planted int
	mutants := map[string]func(*experiment.Scenario){
		"Manager deaf to Search": redeclare(
			func(nd *frodo.Node) bool { return nd.Manager() != nil },
			netsim.Topics(frodo.TopicElection, frodo.TopicPresence), &planted),
		"300D Users deaf to ElectionAnnounce": redeclare(
			func(nd *frodo.Node) bool { return nd.User() != nil },
			netsim.Topics(frodo.TopicPresence), &planted),
	}
	for mutant, plant := range mutants {
		caught, cells := 0, 0
		planted = 0
		eachScopedCell(func(name string, spec experiment.RunSpec) {
			if spec.System != experiment.Frodo2P || spec.Seed != 42 {
				return
			}
			cells++
			spec.Attach = plant
			if diff, _ := differs(spec); diff != "" {
				caught++
			}
		})
		t.Logf("%s: planted on %d devices, caught in %d of %d cells", mutant, planted, caught, cells)
		if cells == 0 || planted == 0 || caught != cells {
			t.Errorf("%s: planted on %d devices, caught in %d of %d cells", mutant, planted, caught, cells)
		}
	}
}
