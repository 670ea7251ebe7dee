package experiment

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// sweepFingerprint serializes everything observable about a SweepResult
// in a deterministic order (maps are walked in Systems order, raw runs
// in slot order) and hashes it, so two sweeps can be compared
// byte-for-byte without retaining megabytes of output.
func sweepFingerprint(res SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d\n", res.M)
	for _, sys := range res.Systems {
		fmt.Fprintf(&b, "%s mprime=%d curve=%#v\n", sys.Short(), res.MPrime[sys], res.Curves[sys].Points)
		for li, runs := range res.Raw[sys] {
			for r, rr := range runs {
				fmt.Fprintf(&b, "%s li=%d r=%d change=%d effort=%d users=%#v\n",
					sys.Short(), li, r, rr.ChangeAt, rr.Effort, rr.Users)
			}
		}
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// pr2SweepGolden freezes the N=100 churn sweep under the PR-2 pooled
// kernel, splitmix RNG and batched fan-out. The determinism tests prove
// a sweep equals itself across worker counts; this constant additionally
// pins the result across future refactors of the kernel and network fast
// path — an event-ordering or RNG regression shows up as a mismatch
// here. Regenerate deliberately (go test -run SweepFingerprint -v prints
// the new value) only when a PR intentionally changes the event
// schedule or random stream, and say so in that PR's notes.
const pr2SweepGolden = "495a2f8bc53b42f2"

// The PR-2 acceptance regression: a 100-User FRODO sweep with churn is
// byte-identical across worker counts and matches the recorded golden
// fingerprint of the pooled kernel.
func TestSweepFingerprintN100Churn(t *testing.T) {
	p := DefaultParams()
	p.Runs = 2
	p.Lambdas = []float64{0, 0.3}
	p.Topology = Topology{Users: 100}
	p.Churn = Churn{Departures: 0.4, MeanAbsence: 600 * sim.Second, Arrivals: 5}
	cfg := func(w int) SweepConfig {
		return SweepConfig{Systems: []System{Frodo2P}, Params: p, Workers: w, RetainRaw: true}
	}
	serial := sweepFingerprint(Sweep(cfg(1)))
	parallel := sweepFingerprint(Sweep(cfg(runtime.GOMAXPROCS(0))))
	if serial != parallel {
		t.Fatalf("sweep fingerprint differs across worker counts: %s vs %s", serial, parallel)
	}
	t.Logf("sweep fingerprint: %s", serial)
	if serial != pr2SweepGolden {
		t.Errorf("sweep fingerprint %s does not match golden %s — the event schedule or random stream changed; if intentional, update pr2SweepGolden", serial, pr2SweepGolden)
	}
}

// TestBuildAllocBudgets bounds what one node of a cold build costs in
// heap objects, per system: a protocol instance is one allocation per
// role (timers, lease tables and retry schedules are embedded; FRODO's
// Registry capability waits for an election; a cache of one or two leases
// holds them inline), so the population term of a build is the node slot,
// its label and the role objects — the boot event comes from a chunk of
// the kernel's pool, and a query travels by pointer inside packets. N = 1,000 makes the infrastructure
// and the amortised slice/map/chunk growth a rounding error.
func TestBuildAllocBudgets(t *testing.T) {
	const users = 1000
	for _, c := range []struct {
		sys    System
		budget float64 // objects per User; measured value alongside
	}{
		{UPnP, 5},    // measures 4.1 (was 14.9, then 6.1, then 5.1)
		{Jini1, 5},   // measures 4.1 (was 13.9, then 7.1, then 8.1)
		{Jini2, 5},   // measures 4.1 (was 13.9, then 7.1, then 8.2)
		{Frodo3P, 5}, // measures 4.1 (was 21.9, then 7.1, then 5.1)
		{Frodo2P, 5}, // measures 4.1 (was 48.0, then 7.1, then 5.1)
	} {
		allocs := testing.AllocsPerRun(3, func() {
			BuildTopology(c.sys, sim.New(1), Topology{Users: users}, Options{})
		})
		perUser := allocs / users
		t.Logf("%s: %.1f objects per User", c.sys.Short(), perUser)
		if perUser > c.budget {
			t.Errorf("%s: a cold build allocates %.1f objects per User, budget %.0f", c.sys.Short(), perUser, c.budget)
		}
	}
}

// TestRunAllocBudgets bounds what one User costs in heap objects over a
// whole run, FRODO 2-party at N = 1,000 and λ = 0: cold on a fresh
// Workspace (the build plus every pool's growth), and rearmed on the
// same Workspace, where the pools are warm and packets, being values,
// allocate nothing: no User-level object is left.
func TestRunAllocBudgets(t *testing.T) {
	const users = 1000
	p := DefaultParams()
	p.Users = users
	spec := RunSpec{System: Frodo2P, Seed: 1, Params: p}
	var ws *Workspace
	for _, c := range []struct {
		name   string
		run    func()
		budget float64 // objects per User; measured value alongside
	}{
		{"cold", func() { ws = NewWorkspace(); RunInto(ws, spec) }, 5.0}, // measures 4.37 (was 27.5, then 8.4)
		{"rearmed", func() { RunInto(ws, spec) }, 0.1},                   // measures 0.01 (was 6.1, then 1.04)
	} {
		perUser := testing.AllocsPerRun(3, c.run) / users
		t.Logf("%s run: %.2f objects per User", c.name, perUser)
		if perUser > c.budget {
			t.Errorf("a %s FRODO 2-party run at N=%d allocates %.2f objects per User, budget %.1f", c.name, users, perUser, c.budget)
		}
	}
}

// TestScopedDeliveryBudget bounds how many frames a large run hands to
// endpoints, per User: a multicast frame goes only to the members that
// listen for its topic, so a FRODO 2-party boot's searches reach the
// Manager and not the whole population. N = 1,000, λ = 0, one fixed seed:
// the count is exact, the budget leaves ~10 % for protocol changes. With
// everyone listening to everything the same run hands over 70.1 frames
// per User.
func TestScopedDeliveryBudget(t *testing.T) {
	const users, budget = 1000, 53.0 // measures 48.1
	p := DefaultParams()
	p.Users = users
	_, sc := runInWorkspace(NewWorkspace(), RunSpec{System: Frodo2P, Seed: 1, Params: p})
	perUser := float64(sc.Net.Counters().Delivered) / users
	t.Logf("%.1f deliveries per User", perUser)
	if perUser > budget {
		t.Errorf("a FRODO 2-party run at N=%d delivers %.1f frames per User, budget %.0f", users, perUser, budget)
	}
}
