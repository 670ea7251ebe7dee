package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Partition is one scheduled transient network split: from Start until
// Start+Duration, frames between the two sides are dropped on the wire
// ("partitioned"); at the end the split heals and connectivity returns.
// Partitions model the self-stabilization scenarios the interface-failure
// arena cannot express — both halves keep running, each side's traffic
// flows normally, only cross-side frames die — and compose freely with
// planned interface failures.
//
// At most one partition may be active at a time; schedules whose windows
// overlap are rejected by SchedulePartition.
type Partition struct {
	Start    sim.Time
	Duration sim.Duration
	// SideB lists the nodes isolated from the rest. Nodes attached after
	// the split activates (churn arrivals) land on side A.
	SideB []NodeID
	// Bisect, when SideB is nil, isolates the upper half of the node
	// table as it stands at Start — a system-agnostic "split the
	// population" knob for sweeps, where per-system node IDs differ.
	Bisect bool
}

// End reports when the partition heals.
func (p Partition) End() sim.Time { return p.Start + p.Duration }

func (p Partition) validate() error {
	if p.Duration <= 0 {
		return fmt.Errorf("netsim: partition duration %v must be positive", p.Duration)
	}
	if len(p.SideB) == 0 && !p.Bisect {
		return fmt.Errorf("netsim: partition needs SideB nodes or Bisect")
	}
	return nil
}

// partEvent is the pooled record behind one partition transition; like
// an outage, it is only returned when Rearm reclaims the run's records. A
// heal links to its activation record (peer), so it only deactivates the
// split it started: with back-to-back windows, the next partition's
// same-instant activation may fire first, and the stale heal must not
// clear it.
type partEvent struct {
	nw   *Network
	p    Partition
	on   bool
	peer *partEvent
}

func (e *partEvent) recycle() { *e = partEvent{} }

// applyPartition is the static kernel callback for split/heal transitions.
func applyPartition(x any) {
	e := x.(*partEvent)
	nw := e.nw
	if e.on {
		nw.activatePartition(e.p)
		nw.partOwner = e
		return
	}
	if nw.partOwner != e.peer {
		return // a back-to-back partition already took over this instant
	}
	nw.partActive = false
	nw.partOwner = nil
	nw.traceNode(NoNode, "partition heal")
}

func (nw *Network) activatePartition(p Partition) {
	need := len(nw.nodes)
	if cap(nw.partSideB) < need {
		nw.partSideB = make([]bool, need)
	} else {
		nw.partSideB = nw.partSideB[:need]
		clear(nw.partSideB)
	}
	if p.SideB != nil {
		for _, id := range p.SideB {
			if nw.known(id) {
				nw.partSideB[id] = true
			}
		}
	} else {
		for i := need / 2; i < need; i++ {
			nw.partSideB[i] = true
		}
	}
	nw.partActive = true
	nw.traceNode(NoNode, "partition start")
}

// partitioned reports whether a frame from one node to another crosses an
// active split. Nodes outside the side bitmap (attached after
// activation) count as side A.
func (nw *Network) partitioned(from, to NodeID) bool {
	if !nw.partActive {
		return false
	}
	return nw.side(from) != nw.side(to)
}

func (nw *Network) side(id NodeID) bool {
	return id >= 0 && int(id) < len(nw.partSideB) && nw.partSideB[id]
}

// SchedulePartition arms the split and heal transitions for one planned
// partition. Invalid or overlapping schedules panic: partitions come
// from experiment plans, where a bad window always indicates a bug.
func (nw *Network) SchedulePartition(p Partition) {
	if err := p.validate(); err != nil {
		panic(err)
	}
	for _, q := range nw.partWindows {
		if p.Start < q.End() && q.Start < p.End() {
			panic(fmt.Sprintf("netsim: partition [%v,%v) overlaps scheduled [%v,%v)",
				p.Start, p.End(), q.Start, q.End()))
		}
	}
	nw.partWindows = append(nw.partWindows, p)
	on := nw.partEvents.get()
	*on = partEvent{nw: nw, p: p, on: true}
	nw.k.AtArg(p.Start, applyPartition, on)
	off := nw.partEvents.get()
	*off = partEvent{nw: nw, p: p, on: false, peer: on}
	nw.k.AtArg(p.End(), applyPartition, off)
}

// SchedulePartitions arms a whole partition plan.
func (nw *Network) SchedulePartitions(ps []Partition) {
	for _, p := range ps {
		nw.SchedulePartition(p)
	}
}
