package experiment

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// The zero-value topology must normalize to the paper's Table 4 design.
func TestTopologyZeroValueIsPaperDesign(t *testing.T) {
	for _, sys := range Systems() {
		topo := Topology{}.normalized(sys)
		if topo.Users != 5 || topo.Managers != 1 || topo.Services != 0 {
			t.Errorf("%v: normalized = %+v", sys, topo)
		}
		if topo.Registries != DefaultRegistries(sys) {
			t.Errorf("%v: registries = %d, want %d", sys, topo.Registries, DefaultRegistries(sys))
		}
		if topo.BootSpacing != sim.Second || topo.UserBootSpacing != sim.Second || topo.BootJitter != sim.Second {
			t.Errorf("%v: boot stagger = %+v", sys, topo)
		}
	}
	// Huge populations densify the User boot schedule automatically.
	big := Topology{Users: 1200}.normalized(Frodo2P)
	if big.UserBootSpacing >= sim.Second {
		t.Errorf("1200 users: spacing %v did not shrink", big.UserBootSpacing)
	}
	if got := big.UserBootSpacing * 1200; got > 60*sim.Second {
		t.Errorf("1200 users: boots span %v, want ≤ 60s", got)
	}
}

// Regression for the old rune-arithmetic userName: names must be
// readable and unique well past i=9 (string(rune('1'+i)) yielded
// "User:", "User;"… garbage there).
func TestUserNamesAtScale(t *testing.T) {
	if got := userName(9); got != "User10" {
		t.Fatalf("userName(9) = %q, want User10", got)
	}
	if got := userName(49); got != "User50" {
		t.Fatalf("userName(49) = %q, want User50", got)
	}
	k := sim.New(1)
	sc := BuildTopology(Frodo2P, k, Topology{Users: 50}, Options{})
	seen := map[string]bool{}
	for _, uid := range sc.UserIDs {
		name := sc.Net.Node(uid).Name
		if seen[name] {
			t.Fatalf("duplicate user name %q at N=50", name)
		}
		seen[name] = true
	}
	if !seen["User50"] {
		t.Error("User50 missing from a 50-user build")
	}
}

// The strconv-built labels are byte for byte what fmt.Sprintf produced,
// at one allocation each.
func TestNodeNamesMatchSprintf(t *testing.T) {
	for _, i := range []int{0, 1, 8, 9, 98, 99, 12344, 1 << 40} {
		if got, want := userName(i), fmt.Sprintf("User%d", i+1); got != want {
			t.Errorf("userName(%d) = %q, want %q", i, got, want)
		}
		if i == 0 {
			continue // slot 0 is the unnumbered "Manager" / "Registry"
		}
		if got, want := managerName(i), fmt.Sprintf("Manager%d", i+1); got != want {
			t.Errorf("managerName(%d) = %q, want %q", i, got, want)
		}
		if got, want := registryName(Jini2, i), fmt.Sprintf("Registry%d", i+1); got != want {
			t.Errorf("registryName(%d) = %q, want %q", i, got, want)
		}
	}
	i := 12344
	if allocs := testing.AllocsPerRun(100, func() { _ = userName(i); i++ }); allocs > 1 {
		t.Errorf("userName allocates %.0f objects, want 1", allocs)
	}
}

// Background Managers must not disturb the measured metrics: the printer
// stays on Manager 0 and the recorder ignores background services.
func TestBackgroundManagersKeepMetricsClean(t *testing.T) {
	for _, sys := range Systems() {
		p := DefaultParams()
		p.Topology = Topology{Users: 5, Managers: 3, Services: 2}
		res := Run(RunSpec{System: sys, Lambda: 0, Seed: 3, Params: p})
		for _, u := range res.Users {
			if !u.Reached {
				t.Errorf("%v: user %d not consistent at λ=0 with background managers", sys, u.User)
			}
		}
	}
}

// SeedFor must be collision-free across the paper's full default grid.
func TestSeedForCollisionFree(t *testing.T) {
	p := DefaultParams()
	seen := map[int64]string{}
	for _, sys := range Systems() {
		for li := range p.Lambdas {
			for r := 0; r < p.Runs; r++ {
				s := SeedFor(p.BaseSeed, sys, li, r)
				key := fmt.Sprintf("%v/%d/%d", sys, li, r)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed %d collides: %s vs %s", s, key, prev)
				}
				seen[s] = key
			}
		}
	}
}

// Sweep curves must be byte-identical at any worker count, including
// under a generalized topology with churn: per-cell summaries are
// slotted by run index, so float folds happen in one fixed order.
func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	p := fastParams(3, []float64{0, 0.3})
	p.Topology = Topology{Users: 20, Managers: 2}
	p.Churn = Churn{Departures: 0.5, MeanAbsence: 300 * sim.Second, Arrivals: 3}
	cfg := func(w int) SweepConfig {
		return SweepConfig{Systems: []System{UPnP, Frodo2P}, Params: p, Workers: w}
	}
	a := Sweep(cfg(1))
	b := Sweep(cfg(runtime.GOMAXPROCS(0)))
	sa := fmt.Sprintf("%#v %d %v", a.Curves, a.M, a.MPrime)
	sb := fmt.Sprintf("%#v %d %v", b.Curves, b.M, b.MPrime)
	if sa != sb {
		t.Errorf("curves differ across worker counts:\n%s\nvs\n%s", sa, sb)
	}
}

// Raw run results are retained only on request.
func TestSweepRawIsOptIn(t *testing.T) {
	p := fastParams(2, []float64{0})
	var added int
	lean := Sweep(SweepConfig{Systems: []System{UPnP}, Params: p, Progress: func(done, _ int) { added = done }})
	if lean.Raw != nil {
		t.Error("Raw retained without RetainRaw")
	}
	if added != 2 {
		t.Errorf("cell holds %d runs, want 2", added)
	}
	full := Sweep(SweepConfig{Systems: []System{UPnP}, Params: p, RetainRaw: true})
	if len(full.Raw[UPnP][0]) != 2 {
		t.Fatalf("RetainRaw kept %d runs", len(full.Raw[UPnP][0]))
	}
	// Both paths aggregate identically.
	if fmt.Sprintf("%#v", lean.Curves) != fmt.Sprintf("%#v", full.Curves) {
		t.Error("RetainRaw changed the curves")
	}
}

// A sweep given only Topology/Churn (no Runs etc.) must default the
// unset design fields without discarding the scenario shape.
func TestSweepPreservesTopologyWhenDefaulting(t *testing.T) {
	var added int
	res := Sweep(SweepConfig{
		Progress: func(done, _ int) { added = done },
		Systems:  []System{UPnP},
		Params: Params{
			Runs:     1,
			Lambdas:  []float64{0},
			Topology: Topology{Users: 9},
		},
	})
	if res.Params.RunDuration != DefaultParams().RunDuration {
		t.Errorf("RunDuration not defaulted: %v", res.Params.RunDuration)
	}
	if res.Params.Topology.Users != 9 {
		t.Fatalf("Topology discarded by defaulting: %+v", res.Params.Topology)
	}
	if added != 1 {
		t.Fatalf("cell runs = %d", added)
	}
	// The run really had 9 users: check via a retained-raw repeat.
	raw := Sweep(SweepConfig{Systems: []System{UPnP},
		Params:    Params{Runs: 1, Lambdas: []float64{0}, Topology: Topology{Users: 9}},
		RetainRaw: true})
	if n := len(raw.Raw[UPnP][0][0].Users); n != 9 {
		t.Errorf("run built %d users, want 9", n)
	}
}

// Property: under zero loss and λ=0 every generated topology reaches
// full consistency — the Configuration Update Principles hold across the
// whole scenario space, not just the paper's point design.
func TestQuickGeneratedTopologiesConverge(t *testing.T) {
	f := func(seedRaw uint16, usersRaw, mgrsRaw, regsRaw, svcRaw, sysRaw uint8) bool {
		sys := Systems()[int(sysRaw)%len(Systems())]
		p := DefaultParams()
		p.RunDuration = 1800 * sim.Second
		p.ChangeMax = 600 * sim.Second
		p.Topology = Topology{
			Users:      1 + int(usersRaw)%12,
			Managers:   1 + int(mgrsRaw)%3,
			Registries: int(regsRaw) % 3, // 0 = system default
			Services:   int(svcRaw) % 3,
		}
		res := Run(RunSpec{System: sys, Lambda: 0, Seed: int64(seedRaw) + 1, Params: p})
		if len(res.Users) != p.Topology.Users {
			return false
		}
		for _, u := range res.Users {
			if !u.Reached || u.Excluded {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: churned-out Users are excluded from the U(i,j) samples —
// exactly those absent at the deadline without having reached
// consistency — and excluded Users contribute no responsiveness sample.
// Permanently departed Users whose node slots were retired and recycled
// appear after the live Users, with their outcome frozen at departure:
// reached (keeps its sample) or excluded, never both and never neither.
func TestQuickChurnedOutUsersExcluded(t *testing.T) {
	f := func(seedRaw uint16, depRaw uint8) bool {
		p := DefaultParams()
		p.RunDuration = 1800 * sim.Second
		p.ChangeMax = 600 * sim.Second
		p.Topology = Topology{Users: 8}
		p.Churn = Churn{Departures: 0.5 + float64(depRaw%4)} // permanent departures
		res, sc := runInWorkspace(NewWorkspace(), RunSpec{System: Frodo2P, Lambda: 0, Seed: int64(seedRaw) + 1, Params: p})
		retired := sc.RetiredOutcomes()
		live := res.Users[:len(res.Users)-len(retired)]
		nonExcluded := 0
		for _, u := range live {
			wantExcluded := sc.AbsentAtEnd(u.User) && !u.Reached
			if u.Excluded != wantExcluded {
				return false
			}
			if !u.Excluded {
				nonExcluded++
			}
		}
		for _, u := range res.Users[len(live):] {
			if u.Excluded == u.Reached { // frozen outcome: exactly one holds
				return false
			}
			if !u.Excluded {
				nonExcluded++
			}
		}
		return len(res.AppendResponsivenesses(nil)) == nonExcluded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Churned Users that rejoin re-discover the service on their own: with a
// bounded absence every User still ends the run consistent or excluded,
// and high churn plus rejoining must not deadlock the sweep.
func TestChurnRejoinRediscovers(t *testing.T) {
	p := DefaultParams()
	p.Topology = Topology{Users: 10}
	p.Churn = Churn{Departures: 1.5, MeanAbsence: 400 * sim.Second, Arrivals: 5}
	res := Run(RunSpec{System: Frodo2P, Lambda: 0, Seed: 7, Params: p})
	if len(res.Users) <= 10 {
		t.Errorf("no arrivals materialized: %d users", len(res.Users))
	}
	reached := 0
	for _, u := range res.Users {
		if u.Reached {
			reached++
		}
	}
	if reached < 8 {
		t.Errorf("only %d/%d churned users regained consistency", reached, len(res.Users))
	}
}

// The acceptance scenario: a 1000-User FRODO run with churn is
// deterministic — same seed, identical metrics at any worker count.
func TestScale1000UserFrodoChurnDeterministic(t *testing.T) {
	p := DefaultParams()
	p.Runs = 1
	p.Lambdas = []float64{0.2}
	p.Topology = Topology{Users: 1000}
	p.Churn = Churn{Departures: 0.3, MeanAbsence: 600 * sim.Second, Arrivals: 50}
	cfg := func(w int) SweepConfig {
		return SweepConfig{Systems: []System{Frodo2P}, Params: p, Workers: w}
	}
	a := Sweep(cfg(1))
	b := Sweep(cfg(runtime.GOMAXPROCS(0)))
	sa := fmt.Sprintf("%#v", a.Curves[Frodo2P])
	sb := fmt.Sprintf("%#v", b.Curves[Frodo2P])
	if sa != sb {
		t.Errorf("1000-user churn sweep diverged across worker counts:\n%s\nvs\n%s", sa, sb)
	}
	if pt := a.Curves[Frodo2P].Points[0]; pt.Effectiveness < 0.5 {
		t.Errorf("effectiveness %v at λ=0.2 with churn: scenario collapsed", pt.Effectiveness)
	}
}

// Validate must reject flag mistakes that normalized() silently papers
// over, and accept every zero-as-default spec.
func TestTopologyValidate(t *testing.T) {
	valid := []Topology{
		{},
		{Users: 100, Managers: 3, Registries: 2, Services: 2},
		{Services: 0, Managers: 1},
	}
	for _, topo := range valid {
		if err := topo.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v; want nil", topo, err)
		}
	}
	invalid := []Topology{
		{Users: -1},
		{Managers: -2},
		{Registries: -1},
		{Services: -3},
		{Services: 1},              // no background manager to host it
		{Managers: 3, Services: 3}, // one more type than background managers
		{BootSpacing: -1},
	}
	for _, topo := range invalid {
		if err := topo.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil; want error", topo)
		}
	}
}

// TestOutageRolesResolve pins the role names against the paper topology
// of every system — Registries first, then the Manager, then the Users
// — and checks that CheckOutages, which reads no built scenario, rejects
// exactly the roles RoleNode cannot resolve.
func TestOutageRolesResolve(t *testing.T) {
	type ids struct{ registry, manager, user netsim.NodeID }
	want := map[System]ids{
		UPnP:    {netsim.NoNode, 0, 1},
		Jini1:   {0, 1, 2},
		Jini2:   {0, 2, 3},
		Frodo3P: {0, 1, 2},
		Frodo2P: {0, 2, 3}, // Central, Backup, Manager, Users
	}
	for _, sys := range Systems() {
		sc := BuildTopology(sys, sim.New(1), Topology{Users: 5}, Options{})
		for role, id := range map[string]netsim.NodeID{"registry:0": want[sys].registry, "manager": want[sys].manager,
			"user:0": want[sys].user, "user:4": want[sys].user + 4, "user:5": netsim.NoNode, "registry:1": 1, "registry:2": netsim.NoNode} {
			if role == "registry:1" && DefaultRegistries(sys) < 2 {
				id = netsim.NoNode
			}
			got, err := sc.RoleNode(role)
			if got != id || (err == nil) != (id != netsim.NoNode) {
				t.Errorf("%v: RoleNode(%s) = %v, %v; want %v", sys, role, got, err, id)
			}
			p := Params{Topology: Topology{Users: 5}, Outages: []Outage{{Node: role}}}
			if err := p.CheckOutages(sys); (err == nil) != (id != netsim.NoNode) {
				t.Errorf("%v: CheckOutages(%s) = %v, but RoleNode gives %v", sys, role, err, id)
			}
		}
	}
}
