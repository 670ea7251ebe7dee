package experiment

import (
	"fmt"

	"repro/internal/discovery"
	"repro/internal/frodo"
	"repro/internal/jini"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/upnp"
)

// Options customizes a scenario beyond the paper defaults; the zero value
// reproduces §5 exactly. The mutator hooks implement ablations (Fig. 7
// removes PR1 from FRODO) and sensitivity studies.
type Options struct {
	// UPnP, Jini and Frodo mutate the respective default configurations
	// before the nodes are built.
	UPnP  func(*upnp.Config)
	Jini  func(*jini.Config)
	Frodo func(*frodo.Config)
	// Loss sets an i.i.d. per-frame drop probability, reproducing the
	// message-loss model of the companion study [25].
	Loss float64
	// Link selects the adversarial link-conditioning models (burst loss,
	// heavy-tailed delay, reordering); the zero value keeps the paper's
	// idealized network. Burst loss and Loss are alternatives.
	Link netsim.LinkConfig
	// Hardened turns the protocol-hardening layer on for every system
	// built from these options (see newKit). False keeps the
	// paper-faithful baseline bit-identical.
	Hardened bool
}

// netConfig resolves the network configuration the options produce.
func (o Options) netConfig() (netsim.Config, error) {
	cfg := netsim.DefaultConfig()
	cfg.Loss = o.Loss
	cfg.Link = o.Link
	return cfg, cfg.Validate()
}

// Validate reports whether the options produce a valid network
// configuration; callers that must not panic (the live runtime) check
// it before BuildTopology.
func (o Options) Validate() error {
	_, err := o.netConfig()
	return err
}

// hasMutators reports whether any configuration hook is set.
func (o Options) hasMutators() bool {
	return o.UPnP != nil || o.Jini != nil || o.Frodo != nil
}

// Scenario is one built system instance on its own kernel and network.
type Scenario struct {
	System System
	Topo   Topology
	K      *sim.Kernel
	Net    *netsim.Network

	ManagerID netsim.NodeID
	UserIDs   []netsim.NodeID

	// TargetVersion is the version Users must reach: 1 + the number of
	// scheduled changes.
	TargetVersion uint64

	rec *recorder
	// measured is the Manager hosting the measured printer.
	measured manager

	// kit holds the system's role constructors; mid-run spawns (churn
	// arrivals, the live gateway's clients and registrations) build
	// through it exactly as the boot population did.
	kit kit
	// absent tracks Users currently churned out of the network.
	absent map[netsim.NodeID]bool
	// users indexes every live User-role instance by node, so a permanent
	// departure can quiesce the instance before its slot is retired.
	users map[netsim.NodeID]user
	// retired freezes the outcomes of permanently departed Users whose
	// node slots were recycled for later arrivals.
	retired []metrics.UserOutcome

	// changeTaps run, in order, after every service change — the
	// consistency oracle's publication tap among them. reg is the
	// registry the run meters into (nil when unmetered). Both are
	// cleared on every build and rearm, so an observer never leaks into
	// the workspace's next run.
	changeTaps []func()
	reg        *obs.Registry

	// boot replays construction for workspace reuse: one entry per boot
	// entity in build order, from which rearm restores the node slot's
	// name, rearms the protocol instance and re-schedules its boot with
	// the same kernel calls (and RNG draws) the fresh build made.
	// bootNodes is the node-slot count at the end of construction — slots
	// beyond it belong to churn arrivals and are released on rearm.
	boot      []bootEntry
	bootNodes int
}

// bootEntry is one boot entity of a scenario: the protocol instance, its
// node slot's name, and its place in the boot schedule — the slot index
// among the infrastructure, or the User index. u is the instance's User
// interface, nil for infrastructure.
type bootEntry struct {
	inst rearmable
	u    user
	name string
	slot int
}

// bootDelay draws an entity's boot delay. Nodes boot staggered inside the
// first seconds; discovery completes well within the failure-free first
// 100s. Infrastructure takes the first slots, Users follow on their own
// (usually denser) spacing.
func (s *Scenario) bootDelay(b bootEntry) sim.Duration {
	t := s.Topo
	base, spacing := sim.Duration(0), t.BootSpacing
	if b.u != nil {
		base, spacing = sim.Duration(t.Registries+t.Managers)*t.BootSpacing, t.UserBootSpacing
	}
	return base + sim.Duration(b.slot)*spacing + s.K.UniformDuration(0, t.BootJitter)
}

// start boots one entity and, for a User, lists it as a measured User;
// both the cold build and the rearm replay go through it, so they make
// the same kernel calls in the same order.
func (s *Scenario) start(b bootEntry) {
	b.inst.Start(s.bootDelay(b))
	if b.u != nil {
		s.UserIDs = append(s.UserIDs, b.u.ID())
	}
}

// recorder observes User cache writes and keeps the first time each User
// reached the target version — the U(i,j) samples. With background
// Managers in the topology it filters on the measured Manager so
// unrelated services never count as consistency.
type recorder struct {
	target  uint64
	manager netsim.NodeID // NoNode until the measured Manager is built
	first   map[netsim.NodeID]sim.Time
	// taps observe every cache write unfiltered (before the
	// measured-Manager and version gates), in the order they were
	// added — the oracle's consistency tap among them.
	taps []discovery.ConsistencyListener
}

// tap feeds one cache write to every consistency tap.
func (r *recorder) tap(t sim.Time, user, manager netsim.NodeID, version uint64) {
	for _, l := range r.taps {
		l.CacheUpdated(t, user, manager, version)
	}
}

func (r *recorder) CacheUpdated(t sim.Time, user, manager netsim.NodeID, version uint64) {
	r.tap(t, user, manager, version)
	if r.manager != netsim.NoNode && manager != r.manager {
		return
	}
	if version < r.target {
		return
	}
	if _, ok := r.first[user]; !ok {
		r.first[user] = t
	}
}

// ReachedAt reports when the User first held the target version.
func (s *Scenario) ReachedAt(user netsim.NodeID) (sim.Time, bool) {
	at, ok := s.rec.first[user]
	return at, ok
}

// RetiredOutcomes reports the Users that departed permanently and whose
// node slots were recycled. Their outcomes were frozen at departure
// (interfaces pinned down, so nothing can change afterwards); the run
// result appends them after the live Users.
func (s *Scenario) RetiredOutcomes() []metrics.UserOutcome { return s.retired }

// TapConsistency adds a listener to the run's cache-write taps. Every
// tap sees every User cache write unfiltered — spawned Users' included
// — in the order the taps were added. The run-time oracle uses it to
// audit the version-bound invariant online.
func (s *Scenario) TapConsistency(l discovery.ConsistencyListener) {
	s.rec.taps = append(s.rec.taps, l)
}

// TapChange adds fn to the hooks run after every service change
// (FireChange) — the oracle's record of what the Manager has published.
func (s *Scenario) TapChange(fn func()) { s.changeTaps = append(s.changeTaps, fn) }

// AddTracer attaches t alongside the tracers already installed on the
// scenario's network, so an observer never displaces the event log.
func (s *Scenario) AddTracer(t netsim.Tracer) {
	s.Net.SetTracer(netsim.TeeTracer(s.Net.Tracer(), t))
}

// Meter makes reg the registry the run meters into: its frame tracer
// joins the network's tracers, and observers attached afterwards (the
// oracle) mirror their counts into it.
func (s *Scenario) Meter(reg *obs.Registry) {
	s.reg = reg
	s.AddTracer(reg.NetTracer())
}

// Telemetry reports the registry the run meters into, nil when none.
func (s *Scenario) Telemetry() *obs.Registry { return s.reg }

// FireChange bumps the measured service's version, starting update
// propagation, and runs the change taps — what the run driver
// schedules at each change time. The live gateway calls it for external
// updates of the measured service, so an attached oracle sees the
// publication before any User can cache the new version.
func (s *Scenario) FireChange() {
	s.measured.ChangeService(changePrinter)
	for _, fn := range s.changeTaps {
		fn()
	}
}

// printerSD is the example service of §4: a color printer.
func printerSD() discovery.ServiceDescription {
	return discovery.ServiceDescription{
		DeviceType:  "Printer",
		ServiceType: "ColorPrinter",
		Attributes:  map[string]string{"PaperSize": "A4", "Location": "Study"},
	}
}

var printerQuery = discovery.Query{ServiceType: "ColorPrinter"}

// auxSD is a background service hosted by Manager j ≥ 1: one of the
// topology's Services distinct types, assigned round-robin, never
// matching the measured printer query.
func auxSD(topo Topology, j int) discovery.ServiceDescription {
	kind := 1 + (j-1)%topo.Services
	return discovery.ServiceDescription{
		DeviceType:  "Aux",
		ServiceType: fmt.Sprintf("AuxService%d", kind),
		Attributes:  map[string]string{"Slot": fmt.Sprintf("%d", j)},
	}
}

// changePrinter is the §4 example change: the paper tray empties / the
// service type flips — any attribute mutation bumps the version.
func changePrinter(attrs map[string]string) { attrs["ServiceType2"] = "Black&WhitePrinter" }

// BuildTopology constructs a system instance of arbitrary shape: Registry
// and Manager counts, background services and the User population all
// come from the topology spec. The zero-value spec rebuilds the paper's
// design, including the boot order (Registries, then Managers, then
// Users) and its randomized per-node jitter, so default runs replay the
// seed experiments bit-for-bit. The scenario owns a private workspace,
// so it stays valid indefinitely.
func BuildTopology(sys System, k *sim.Kernel, topo Topology, opts Options) *Scenario {
	return buildTopology(NewWorkspace(), sys, k, topo, opts)
}

// buildTopology builds on a workspace: the scenario borrows the
// workspace's network, recorder and ledgers (reset, capacity retained)
// instead of allocating fresh ones — and, when the workspace's cached
// scenario already has this exact shape, the whole protocol-instance
// graph is rearmed in place instead of rebuilt.
func buildTopology(ws *Workspace, sys System, k *sim.Kernel, topo Topology, opts Options) *Scenario {
	topo = topo.normalized(sys)
	// Invalid network options fail here, at build entry, before any
	// simulation state is touched — never partway through a sweep.
	netCfg, err := opts.netConfig()
	if err != nil {
		panic(fmt.Sprintf("experiment: invalid network options: %v", err))
	}
	key := scenarioKey{sys: sys, topo: topo, loss: opts.Loss, link: opts.Link, hasMutators: opts.hasMutators(), hardened: opts.Hardened}
	if ws.reusable(key) {
		return rearmTopology(ws, k, netCfg)
	}
	// Invalidate before touching the network: a panic mid-build must not
	// leave a stale cached scenario that a later same-shape run would
	// rearm against rebuilt node slots.
	ws.invalidate()

	sc := &Scenario{System: sys, Topo: topo, K: k, TargetVersion: 2, kit: newKit(sys, opts), Net: ws.network(k, netCfg)}
	sc.rec, sc.absent, sc.users, sc.UserIDs, sc.retired = ws.scratch(topo.Users)
	sc.boot = make([]bootEntry, 0, topo.Nodes())
	nw := sc.Net
	nw.Grow(topo.Nodes())
	boot := func(b bootEntry) {
		sc.start(b)
		sc.boot = append(sc.boot, b)
	}

	for i := 0; i < topo.Registries; i++ {
		name := registryName(sys, i)
		boot(bootEntry{inst: sc.kit.registry(nw.AddNode(name), i), name: name, slot: i})
	}
	for j := 0; j < topo.Managers; j++ {
		sd := printerSD()
		if j > 0 {
			sd = auxSD(topo, j)
		}
		name := managerName(j)
		m := sc.kit.manager(nw.AddNode(name), sd)
		if j == 0 {
			sc.ManagerID, sc.measured = m.ID(), m
		}
		boot(bootEntry{inst: m, name: name, slot: topo.Registries + j})
	}
	for i := 0; i < topo.Users; i++ {
		name := userName(i)
		u := sc.newUser(name, printerQuery, sc.rec)
		boot(bootEntry{inst: u, u: u, name: name, slot: i})
	}
	sc.rec.manager = sc.ManagerID
	sc.bootNodes = nw.Nodes()
	ws.cache(sc, key)
	return sc
}

// rearmTopology replays the cached scenario's construction on the reset
// kernel: the network keeps the boot node slots (endpoints re-bound by
// each instance's rearm), the workspace ledgers are cleared, and the
// recorded boot entries re-run the boot schedule in build order — the
// same kernel calls, the same RNG draws, the same event sequence numbers
// as a fresh build, with ~no allocation.
func rearmTopology(ws *Workspace, k *sim.Kernel, netCfg netsim.Config) *Scenario {
	sc := ws.scen
	key := ws.scenKey
	// Same panic-safety rule as the cold build: only a fully rearmed
	// scenario may stay cached.
	ws.invalidate()
	sc.K = k
	sc.Net.Rearm(k, netCfg, sc.bootNodes)
	sc.rec, sc.absent, sc.users, sc.UserIDs, sc.retired = ws.scratch(sc.Topo.Users)
	sc.TargetVersion = 2
	clear(sc.changeTaps)
	sc.changeTaps, sc.reg = sc.changeTaps[:0], nil
	for _, b := range sc.boot {
		sc.Net.Node(b.inst.ID()).Name = b.name
		b.inst.Rearm()
		if b.u != nil {
			sc.users[b.u.ID()] = b.u
		}
		sc.start(b)
	}
	sc.rec.manager = sc.ManagerID
	ws.cache(sc, key)
	return sc
}

// newUser builds one User-role instance on a fresh (or recycled) node
// slot and indexes it; the caller schedules its boot.
func (s *Scenario) newUser(name string, q discovery.Query, l discovery.ConsistencyListener) user {
	u := s.kit.user(s.Net.AddNode(name), q, l)
	s.users[u.ID()] = u
	return u
}

// arrive boots one more measured User immediately — a Poisson or
// flash-crowd arrival: the measured printer query, the run recorder.
func (s *Scenario) arrive(name string) {
	u := s.newUser(name, printerQuery, s.rec)
	u.Start(0)
	s.UserIDs = append(s.UserIDs, u.ID())
}

// SpawnUser adds one more User of the scenario's system mid-run, with
// its own query, booting immediately. Its cache writes reach the
// scenario's consistency taps first and then l. It returns the new
// node's ID and a visitor over the User's cached service records — the
// live gateway's read path into protocol state. Spawned Users are not
// part of UserIDs and never enter the Update Metrics; like every
// scenario mutation, SpawnUser must run on the kernel's goroutine (the
// live Driver serializes it).
func (s *Scenario) SpawnUser(name string, q discovery.Query, l discovery.ConsistencyListener) (netsim.NodeID, func(func(discovery.ServiceRecord))) {
	rec := s.rec
	u := s.newUser(name, q, discovery.ListenerFunc(func(t sim.Time, user, manager netsim.NodeID, version uint64) {
		rec.tap(t, user, manager, version)
		l.CacheUpdated(t, user, manager, version)
	}))
	u.Start(0)
	return u.ID(), u.EachCached
}

// SpawnManager adds one more Manager hosting sd mid-run, booting
// immediately. It returns the Manager's node ID and the service-change
// closure (the live gateway's update path). Same concurrency contract
// as SpawnUser.
func (s *Scenario) SpawnManager(name string, sd discovery.ServiceDescription) (netsim.NodeID, func(mutate func(map[string]string))) {
	m := s.kit.manager(s.Net.AddNode(name), sd)
	m.Start(0)
	return m.ID(), m.ChangeService
}

// RegistryIDs reports the node IDs of the Registry-role infrastructure:
// the build order places Registries in the first slots. Empty for UPnP,
// which has no Registry role. The live gateway unicasts lookups here.
func (s *Scenario) RegistryIDs() []netsim.NodeID {
	ids := make([]netsim.NodeID, 0, s.Topo.Registries)
	for i := 0; i < s.Topo.Registries; i++ {
		ids = append(ids, netsim.NodeID(i))
	}
	return ids
}

// AllNodeIDs lists every node for the failure planner.
func (s *Scenario) AllNodeIDs() []netsim.NodeID {
	ids := make([]netsim.NodeID, s.Net.Nodes())
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	return ids
}

// RoleNode resolves a role name against the built scenario: "manager"
// is the measured Manager, "user:<i>" the i-th User of the boot
// population and "registry:<i>" the i-th Registry.
func (s *Scenario) RoleNode(role string) (netsim.NodeID, error) {
	kind, i, err := s.Topo.role(s.System, role)
	switch {
	case err != nil:
		return netsim.NoNode, err
	case kind == "manager":
		return s.ManagerID, nil
	case kind == "user":
		return s.UserIDs[i], nil
	default:
		return s.RegistryIDs()[i], nil
	}
}
