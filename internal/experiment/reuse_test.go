package experiment

import (
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/frodo"
	"repro/internal/metrics"
	"repro/internal/sim"
)

type frodoConfigAlias = frodo.Config

// TestWorkspaceReuseMatchesFreshBuild is the correctness contract of
// scenario rearming: running a spec on a workspace whose cached scenario
// is reused (after an interleaved different-seed run that dirtied every
// table, timer and node slot) must produce bit-identical results to a
// cold run on a fresh workspace — same outcomes, same effort, same
// message counters. Churn is on so retirement, slot recycling and
// mid-run arrivals all happen between the compared runs.
func TestWorkspaceReuseMatchesFreshBuild(t *testing.T) {
	p := DefaultParams()
	p.Topology = Topology{Users: 25}
	p.Churn = Churn{Departures: 0.4, MeanAbsence: 600 * sim.Second, Arrivals: 3}
	for _, sys := range Systems() {
		t.Run(sys.Short(), func(t *testing.T) {
			spec := func(seed int64) RunSpec {
				return RunSpec{System: sys, Lambda: 0.3, Seed: seed, Params: p}
			}
			cold := func(seed int64) (metrics.RunResult, int, int) {
				ws := NewWorkspace()
				res := RunInto(ws, spec(seed))
				c := ws.nw.Counters()
				return res, c.Sends, c.Drops
			}
			coldRes, coldSends, coldDrops := cold(7)

			// Warm path: same workspace runs seed 99 first (building the
			// scenario and then thoroughly dirtying it), then seed 7 again —
			// this second run takes the rearm path.
			ws := NewWorkspace()
			RunInto(ws, spec(99))
			if ws.scen == nil {
				t.Fatal("workspace did not cache the scenario")
			}
			sc := ws.scen
			warmRes := RunInto(ws, spec(7))
			if ws.scen != sc {
				t.Fatal("second run rebuilt instead of rearming")
			}

			if !reflect.DeepEqual(coldRes, warmRes) {
				t.Errorf("rearmed run differs from cold run:\ncold: %+v\nwarm: %+v", coldRes, warmRes)
			}
			if c := ws.nw.Counters(); c.Sends != coldSends || c.Drops != coldDrops {
				t.Errorf("rearmed run wire traffic differs: sends %d vs %d, drops %d vs %d",
					c.Sends, coldSends, c.Drops, coldDrops)
			}
		})
	}
}

// TestWorkspaceRebuildsOnShapeChange pins the cache key: a different
// topology, system or loss model must rebuild, never rearm.
func TestWorkspaceRebuildsOnShapeChange(t *testing.T) {
	ws := NewWorkspace()
	p := DefaultParams()
	RunInto(ws, RunSpec{System: UPnP, Lambda: 0, Seed: 1, Params: p})
	first := ws.scen

	p2 := p
	p2.Topology = Topology{Users: 9}
	RunInto(ws, RunSpec{System: UPnP, Lambda: 0, Seed: 1, Params: p2})
	if ws.scen == first {
		t.Error("topology change did not rebuild the scenario")
	}
	second := ws.scen

	RunInto(ws, RunSpec{System: Jini1, Lambda: 0, Seed: 1, Params: p2})
	if ws.scen == second {
		t.Error("system change did not rebuild the scenario")
	}

	third := ws.scen
	RunInto(ws, RunSpec{System: Jini1, Lambda: 0, Seed: 2, Params: p2})
	if ws.scen != third {
		t.Error("same-shape run should have rearmed the cached scenario")
	}
}

// TestWorkspaceMutatorOptionsNeedTrust pins the safety rule for option
// hooks: two option sets with mutator funcs are indistinguishable by
// value, so an untrusted workspace must rebuild rather than risk reusing
// a scenario built under different mutations; TrustOptions (the sweep's
// promise) enables reuse.
func TestWorkspaceMutatorOptionsNeedTrust(t *testing.T) {
	p := DefaultParams()
	// A non-nil mutator with identity behaviour: reuse must still be
	// refused without trust, because mutator funcs carry no comparable
	// identity.
	opts := Options{Frodo: func(c *frodoConfigAlias) {}}
	spec := RunSpec{System: Frodo2P, Lambda: 0, Seed: 1, Params: p, Opts: opts}

	ws := NewWorkspace()
	RunInto(ws, spec)
	first := ws.scen
	RunInto(ws, spec)
	if ws.scen == first && first != nil {
		t.Error("untrusted workspace reused a mutator-built scenario")
	}

	trusted := NewWorkspace()
	trusted.TrustOptions()
	RunInto(trusted, spec)
	tfirst := trusted.scen
	RunInto(trusted, spec)
	if trusted.scen != tfirst {
		t.Error("trusted workspace rebuilt instead of rearming")
	}
}

// TestWorkspaceReleasesPreviousScenario pins what a workspace keeps of a
// scenario it has moved on from: capacity, never protocol state. A large
// FRODO run followed by a tiny UPnP run on the same workspace leaves most
// of the network's node structs parked for reuse; a parked node that
// still held its endpoint would keep the first run's whole protocol
// graph reachable until its slot was taken again.
func TestWorkspaceReleasesPreviousScenario(t *testing.T) {
	ws := NewWorkspace()
	p := DefaultParams()
	p.Topology = Topology{Users: 2000}
	_, sc := runInWorkspace(ws, RunSpec{System: Frodo2P, Seed: 1, Params: p})
	nd := frodo.NodeOf(sc.Net.Node(sc.UserIDs[0]).Endpoint())
	if nd == nil {
		t.Fatal("the first User's endpoint is not a FRODO device")
	}
	first := weak.Make(nd)
	nd = nil
	sc = nil

	small := DefaultParams()
	small.Topology = Topology{Users: 5}
	RunInto(ws, RunSpec{System: UPnP, Seed: 1, Params: small})
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	if first.Value() != nil {
		t.Error("the previous scenario's first User is still reachable from the workspace after a different-shape run")
	}
	runtime.KeepAlive(ws)
}
