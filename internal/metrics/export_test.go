package metrics

import "repro/internal/stats"

// efficiency is the paper's Update Efficiency E(λ): the mean over the
// cell's runs of m/y, with m the minimum zero-failure effort across all
// systems, clamped to [0, 1]; a run with no effort counts 1. No figure
// reads E, so its definition lives beside the tests that check it.
func (c *Cell) efficiency(m int) float64 {
	var eff stats.Welford
	for i, s := range c.perRun {
		if !c.have[i] {
			continue
		}
		if s.Effort > 0 {
			eff.Add(float64(m) / float64(s.Effort))
		} else {
			eff.Add(1)
		}
	}
	return stats.Clamp(eff.Mean(), 0, 1)
}
