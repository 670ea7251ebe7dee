package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// FailMode selects which interface(s) a failure takes down. Failing the
// transmitter or the receiver models a communication failure; failing both
// models a node failure (§5 Step 2).
type FailMode uint8

const (
	FailTx FailMode = iota
	FailRx
	FailBoth
)

func (m FailMode) String() string {
	switch m {
	case FailTx:
		return "Tx"
	case FailRx:
		return "Rx"
	case FailBoth:
		return "Tx+Rx"
	default:
		return "?"
	}
}

// InterfaceFailure is one planned outage of a node's interfaces.
type InterfaceFailure struct {
	Node     NodeID
	Mode     FailMode
	Start    sim.Time
	Duration sim.Duration
}

// End reports when the interfaces recover.
func (f InterfaceFailure) End() sim.Time { return f.Start + f.Duration }

// String renders the failure in the style of the paper's event logs
// ("Manager Tx down at 381, up at 1191").
func (f InterfaceFailure) String() string {
	return fmt.Sprintf("node %d %s down at %.0f, up at %.0f", f.Node, f.Mode, f.Start.Sec(), f.End().Sec())
}

// FailurePlanConfig parameterizes the paper's interface-failure model.
type FailurePlanConfig struct {
	// Lambda is the failure rate λ ∈ [0,1]: the fraction of the run each
	// node spends with failed interface(s).
	Lambda float64
	// WindowStart and WindowEnd bound the uniformly-drawn activation time
	// (§5 Step 2: "interface failure occurs at a random time, from 100s to
	// 5400s").
	WindowStart, WindowEnd sim.Time
	// RunDuration is the full simulation length; the outage lasts
	// λ·RunDuration (possibly extending past the end of the run).
	RunDuration sim.Duration
}

// PlanInterfaceFailures draws one outage per node: mode uniform over
// {Tx, Rx, both}, start uniform in the window, duration λ·RunDuration.
// With λ = 0 it returns no failures.
func PlanInterfaceFailures(k *sim.Kernel, nodes []NodeID, cfg FailurePlanConfig) []InterfaceFailure {
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		panic(fmt.Sprintf("netsim: lambda %v out of [0,1]", cfg.Lambda))
	}
	if cfg.Lambda == 0 {
		return nil
	}
	failures := make([]InterfaceFailure, 0, len(nodes))
	for _, id := range nodes {
		f := InterfaceFailure{
			Node:     id,
			Mode:     FailMode(k.Rand().Intn(3)),
			Start:    k.UniformTime(cfg.WindowStart, cfg.WindowEnd),
			Duration: sim.Duration(cfg.Lambda * float64(cfg.RunDuration)),
		}
		failures = append(failures, f)
	}
	return failures
}

// RackPlanConfig parameterizes correlated rack-level failures: the node
// table is divided into Racks contiguous blocks ("racks" — infrastructure
// occupies the first slots, so rack 0 holds the Registries and Managers),
// Fail of them are drawn at random, and every member of a failing rack
// loses both interfaces within one short window — the correlated regime
// (a switch dies, a PDU trips) that per-node λ draws never concentrate
// on. The zero value is disabled and draws no randomness, so default
// runs replay unchanged.
type RackPlanConfig struct {
	// Racks is the number of contiguous rack groups; nodes are assigned
	// by table position (rack r owns slots [r·N/Racks, (r+1)·N/Racks)).
	Racks int
	// Fail is how many distinct racks fail, drawn uniformly.
	Fail int
	// WindowStart and WindowEnd bound the uniformly-drawn instant each
	// failing rack starts to go down.
	WindowStart, WindowEnd sim.Time
	// Duration is each member's outage length.
	Duration sim.Duration
	// Spread staggers the members of one failing rack: each goes down at
	// the rack's start plus U[0, Spread) — near-simultaneous, not
	// instant, like a real cascading power event. 0 means simultaneous.
	Spread sim.Duration
}

// Enabled reports whether the plan does anything.
func (c RackPlanConfig) Enabled() bool { return c.Racks > 0 && c.Fail > 0 }

// Validate rejects impossible rack plans.
func (c RackPlanConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.Fail > c.Racks:
		return fmt.Errorf("netsim: rack plan fails %d of %d racks", c.Fail, c.Racks)
	case c.Duration <= 0:
		return fmt.Errorf("netsim: rack outage duration %v must be positive", c.Duration)
	case c.Spread < 0:
		return fmt.Errorf("netsim: negative rack spread %v", c.Spread)
	case c.WindowEnd < c.WindowStart:
		return fmt.Errorf("netsim: rack window end %v before start %v", c.WindowEnd, c.WindowStart)
	}
	return nil
}

// PlanRackFailures draws one correlated outage per failing rack: the
// failing racks come from a random permutation, each draws one start
// time in the window, and every member node fails both interfaces at
// start + U[0, Spread) for cfg.Duration. The returned failures compose
// with the per-node λ plan via ScheduleFailures. Racks larger than the
// node table degrade gracefully (some racks are empty).
func PlanRackFailures(k *sim.Kernel, nodes []NodeID, cfg RackPlanConfig) []InterfaceFailure {
	if !cfg.Enabled() {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	failing := k.Rand().Perm(cfg.Racks)[:cfg.Fail]
	failures := make([]InterfaceFailure, 0, cfg.Fail*len(nodes)/cfg.Racks+1)
	for _, r := range failing {
		lo := r * len(nodes) / cfg.Racks
		hi := (r + 1) * len(nodes) / cfg.Racks
		start := k.UniformTime(cfg.WindowStart, cfg.WindowEnd)
		for _, id := range nodes[lo:hi] {
			at := start
			if cfg.Spread > 0 {
				at += sim.Time(k.UniformDuration(0, cfg.Spread))
			}
			failures = append(failures, InterfaceFailure{
				Node: id, Mode: FailBoth, Start: at, Duration: cfg.Duration,
			})
		}
	}
	return failures
}

// outage is the pooled record behind one scheduled interface transition.
// It is never put back during a run (a recovery often lies past the
// horizon and never fires); Rearm reclaims the run's records at once.
type outage struct {
	node *Node
	gen  uint32
	mode FailMode
	up   bool
}

func (o *outage) recycle() { *o = outage{} }

// applyOutage is the static kernel callback for planned transitions.
func applyOutage(x any) {
	o := x.(*outage)
	if o.node.slot().gen != o.gen {
		return
	}
	if o.mode == FailTx || o.mode == FailBoth {
		o.node.SetTx(o.up)
	}
	if o.mode == FailRx || o.mode == FailBoth {
		o.node.SetRx(o.up)
	}
}

// ScheduleFailure arms the down/up transitions for one planned outage.
// The outage is pinned to the node's current slot tenancy: if the node
// is retired and its slot recycled before a transition fires, the new
// tenant does not inherit the planned outage (arrivals receive no
// failure draw).
func (nw *Network) ScheduleFailure(f InterfaceFailure) {
	node := nw.Node(f.Node)
	gen := nw.slots[f.Node].gen
	down := nw.outages.get()
	*down = outage{node: node, gen: gen, mode: f.Mode, up: false}
	nw.k.AtArg(f.Start, applyOutage, down)
	up := nw.outages.get()
	*up = outage{node: node, gen: gen, mode: f.Mode, up: true}
	nw.k.AtArg(f.End(), applyOutage, up)
}

// ScheduleFailures arms a whole failure plan.
func (nw *Network) ScheduleFailures(fs []InterfaceFailure) {
	for _, f := range fs {
		nw.ScheduleFailure(f)
	}
}
