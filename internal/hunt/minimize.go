package hunt

import (
	"reflect"

	"repro/internal/experiment"
)

// Delta-debugging a violating spec: greedily try a fixed sequence of
// reductions, keeping each one that still reproduces the violation,
// until a full sweep removes nothing. Determinism invariants:
//
//   - the candidate order is fixed (the pass table below, fields before
//     magnitudes), never randomized;
//   - every probe reruns the reduced spec with the spec's own seed, so
//     "still violates" means the committed fixture will replay the same
//     violation by seed alone — seed-determinism is preserved, not
//     assumed;
//   - a reduction is accepted only if the same invariant still fires on
//     the same system; the count may change (fewer faults, fewer
//     breaches) but the witness must not drift to a different bug.
//
// The probe count is capped so a pathological spec cannot stall the
// hunt; the cap is generous (the pass table is small) and a capped
// minimization simply returns the best reduction so far.

const maxMinimizeRuns = 250

// reductions generate one candidate each from the current spec, or nil
// when the dimension is already minimal. Order: drop whole fault
// dimensions first (partitions, crowds, racks, churn, link, λ), then
// shrink magnitudes (duration, population, crowd size).
var reductions = []func(*experiment.ScenarioSpec) []*experiment.ScenarioSpec{
	func(s *experiment.ScenarioSpec) []*experiment.ScenarioSpec {
		var out []*experiment.ScenarioSpec
		for i := range s.Partitions {
			c := cloneSpec(s)
			c.Partitions = append(c.Partitions[:i:i], c.Partitions[i+1:]...)
			if len(c.Partitions) == 0 {
				c.Partitions = nil
			}
			out = append(out, c)
		}
		return out
	},
	func(s *experiment.ScenarioSpec) []*experiment.ScenarioSpec {
		var out []*experiment.ScenarioSpec
		for i := range s.FlashCrowds {
			c := cloneSpec(s)
			c.FlashCrowds = append(c.FlashCrowds[:i:i], c.FlashCrowds[i+1:]...)
			if len(c.FlashCrowds) == 0 {
				c.FlashCrowds = nil
			}
			out = append(out, c)
		}
		return out
	},
	one(func(c *experiment.ScenarioSpec) bool {
		if c.RackFailures == (experiment.SpecRacks{}) {
			return false
		}
		c.RackFailures = experiment.SpecRacks{}
		return true
	}),
	one(func(c *experiment.ScenarioSpec) bool {
		if c.Churn == (experiment.SpecChurn{}) {
			return false
		}
		c.Churn = experiment.SpecChurn{}
		return true
	}),
	one(func(c *experiment.ScenarioSpec) bool {
		if c.Link == (experiment.SpecLink{}) {
			return false
		}
		c.Link = experiment.SpecLink{}
		return true
	}),
	one(func(c *experiment.ScenarioSpec) bool {
		if c.Lambda == 0 {
			return false
		}
		c.Lambda = 0
		return true
	}),
	one(func(c *experiment.ScenarioSpec) bool {
		if c.FailureWindow == nil {
			return false
		}
		c.FailureWindow = nil
		return true
	}),
	one(func(c *experiment.ScenarioSpec) bool {
		if c.ChangeMinSec == 0 && c.ChangeMaxSec == 0 {
			return false
		}
		c.ChangeMinSec, c.ChangeMaxSec = 0, 0
		return true
	}),
	// Back to the default duration, else halve toward it.
	one(func(c *experiment.ScenarioSpec) bool {
		if c.DurationSec == 0 {
			return false
		}
		c.DurationSec = 0
		repair(c) // partitions may force the duration right back up
		return true
	}),
	one(func(c *experiment.ScenarioSpec) bool {
		if c.DurationSec <= minDurationSec {
			return false
		}
		c.DurationSec = float64(int(c.DurationSec/2/100) * 100)
		repair(c)
		return true
	}),
	one(func(c *experiment.ScenarioSpec) bool {
		if c.Topology == (experiment.SpecTopology{}) {
			return false
		}
		c.Topology = experiment.SpecTopology{}
		return true
	}),
	func(s *experiment.ScenarioSpec) []*experiment.ScenarioSpec {
		var out []*experiment.ScenarioSpec
		for i, fc := range s.FlashCrowds {
			if fc.Users <= 1 {
				continue
			}
			c := cloneSpec(s)
			c.FlashCrowds[i].Users = fc.Users / 2
			out = append(out, c)
		}
		return out
	},
}

// one lifts a single-candidate reduction into the table's shape.
func one(f func(*experiment.ScenarioSpec) bool) func(*experiment.ScenarioSpec) []*experiment.ScenarioSpec {
	return func(s *experiment.ScenarioSpec) []*experiment.ScenarioSpec {
		c := cloneSpec(s)
		if !f(c) {
			return nil
		}
		return []*experiment.ScenarioSpec{c}
	}
}

// minimize shrinks a finding's spec to a fixed point of the reduction
// table while its violation keeps reproducing.
func (h *Hunter) minimize(f *Finding) *experiment.ScenarioSpec {
	reproduces := func(s *experiment.ScenarioSpec) bool {
		if s.Validate() != nil || s.Params().CheckOutages(f.System) != nil {
			return false
		}
		h.minRuns++
		st := h.runOne(s, f.System)
		return st.Report.ByInvariant[f.Invariant] > 0
	}
	cur := cloneSpec(f.Spec)
	budget := maxMinimizeRuns
	for changed := true; changed; {
		changed = false
		for _, reduce := range reductions {
			for _, cand := range reduce(cur) {
				if reflect.DeepEqual(cand, cur) {
					continue // repair() undid the reduction: a no-op, not progress
				}
				if budget <= 0 {
					h.logf("minimize %s/%s: probe cap hit, keeping best-so-far", f.System.Short(), f.Invariant)
					return cur
				}
				budget--
				if reproduces(cand) {
					cur = cand
					changed = true
					break // re-run this pass on the smaller spec
				}
			}
		}
	}
	h.logf("minimized %s/%s after %d probes", f.System.Short(), f.Invariant, maxMinimizeRuns-budget)
	return cur
}
