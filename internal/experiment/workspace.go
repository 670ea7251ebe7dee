package experiment

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Workspace is the reusable scratch of one simulation worker. A sweep
// runs thousands of independent simulations; building each one used to
// reallocate the kernel's event heap, the RNG, the network's node table
// and group membership, and the recorder maps from scratch. A Workspace
// keeps all of that capacity alive between runs on one goroutine:
// Kernel.Reset and Network.Reset recycle the structures, so consecutive
// runs settle into a steady state with almost no fixed-cost allocation.
//
// On top of the kernel/network scratch, a workspace caches the last
// built Scenario — protocol instances, lease tables, recorder state and
// all. When the next run asks for the same shape (same system, same
// normalized topology, same loss model, compatible options), the whole
// ~O(N) object graph is rearmed in place instead of rebuilt: each
// instance replays its constructor's kernel and network side effects in
// the original build order, so the run is bit-identical to a fresh
// build while allocating almost nothing.
//
// A Workspace is single-owner and not safe for concurrent use. The
// Scenario returned by a run borrows the workspace's storage — it is
// valid only until the workspace's next run.
type Workspace struct {
	k  *sim.Kernel
	nw *netsim.Network

	rec     recorder
	absent  map[netsim.NodeID]bool
	users   map[netsim.NodeID]user
	userIDs []netsim.NodeID
	retired []metrics.UserOutcome

	// scen is the cached scenario; scenKey identifies the shape it was
	// built for. trustOpts widens reuse to option sets with mutator
	// hooks (see TrustOptions).
	scen      *Scenario
	scenKey   scenarioKey
	trustOpts bool
}

// scenarioKey identifies a reusable scenario shape. Options mutators are
// function values and carry no comparable identity, so their presence is
// part of the key: by default a scenario built with mutator hooks is
// never reused (two distinct closures can share a code pointer), unless
// the workspace owner vouched for option stability with TrustOptions.
type scenarioKey struct {
	sys         System
	topo        Topology
	loss        float64
	link        netsim.LinkConfig
	hasMutators bool
	hardened    bool
}

// NewWorkspace returns an empty workspace; capacity accretes over runs.
func NewWorkspace() *Workspace { return &Workspace{} }

// TrustOptions promises that every run on this workspace uses, for any
// given system, one fixed Options value for the workspace's lifetime.
// Sweep makes that promise (its per-system options are fixed for the
// whole sweep), which lets workers rearm scenarios built with ablation
// or sensitivity mutators instead of rebuilding them every run.
func (ws *Workspace) TrustOptions() { ws.trustOpts = true }

// kernel returns the workspace kernel reset to seed; without a workspace,
// a fresh kernel.
func (ws *Workspace) kernel(seed int64) *sim.Kernel {
	if ws == nil {
		return sim.New(seed)
	}
	if ws.k == nil {
		ws.k = sim.New(seed)
	} else {
		ws.k.Reset(seed)
	}
	return ws.k
}

// network returns the workspace network reset for kernel k. The config
// was validated at build entry (Options.netConfig), so a constructor
// error here is a programmer bug.
func (ws *Workspace) network(k *sim.Kernel, cfg netsim.Config) *netsim.Network {
	if ws.nw == nil {
		nw, err := netsim.New(k, cfg)
		if err != nil {
			panic(err)
		}
		ws.nw = nw
	} else {
		ws.nw.Reset(k, cfg)
	}
	return ws.nw
}

// scratch hands the recorder, ledgers and slices to a new scenario,
// cleared but with capacity intact.
func (ws *Workspace) scratch(topoUsers int) (rec *recorder, absent map[netsim.NodeID]bool,
	users map[netsim.NodeID]user, userIDs []netsim.NodeID, retired []metrics.UserOutcome) {
	if ws.absent == nil {
		ws.absent = make(map[netsim.NodeID]bool)
		ws.users = make(map[netsim.NodeID]user)
	} else {
		clear(ws.absent)
		clear(ws.users)
	}
	if ws.rec.first == nil {
		ws.rec.first = make(map[netsim.NodeID]sim.Time, topoUsers)
	} else {
		clear(ws.rec.first)
	}
	ws.rec.target = 2
	ws.rec.manager = netsim.NoNode
	clear(ws.rec.taps)
	ws.rec.taps = ws.rec.taps[:0]
	return &ws.rec, ws.absent, ws.users, ws.userIDs[:0], ws.retired[:0]
}

// reusable reports whether the cached scenario matches the requested
// shape and may be rearmed instead of rebuilt.
func (ws *Workspace) reusable(key scenarioKey) bool {
	if ws.scen == nil || ws.scenKey != key {
		return false
	}
	// Mutator-bearing options are only trusted when the owner vouched
	// for their stability across this workspace's runs.
	return !key.hasMutators || ws.trustOpts
}

// cache records the scenario built for key so the next same-shape run
// can rearm it. Callers only cache a fully built (or fully rearmed)
// scenario — never a partial one.
func (ws *Workspace) cache(sc *Scenario, key scenarioKey) {
	ws.scen = sc
	ws.scenKey = key
}

// invalidate forgets the cached scenario. Builds and rearms call it up
// front so a panic partway through can never leave a half-initialized
// graph behind a matching key (the workspace may outlive the panic via
// the deferred pool Put in Run).
func (ws *Workspace) invalidate() {
	ws.scen = nil
	ws.scenKey = scenarioKey{}
}

// adopt takes the (possibly regrown) slices back from a finished
// scenario so their capacity carries into the next run.
func (ws *Workspace) adopt(sc *Scenario) {
	ws.userIDs = sc.UserIDs[:0]
	ws.retired = sc.retired[:0]
}

// wsPool recycles workspaces across one-shot Run calls, so callers that
// loop over Run (benchmarks, tables, the guarantee checker) get the same
// steady-state reuse as a sweep worker without threading a workspace.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}
