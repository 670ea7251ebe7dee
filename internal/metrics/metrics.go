// Package metrics implements the NIST Update Metrics (§4.5) and the
// paper's Efficiency Degradation refinement, exactly as defined:
//
//	Update Responsiveness R(λ): median over all runs i and Users j of
//	    1 − L(i,j,λ), with L = (U − C)/(D − C); a User that never
//	    reaches consistency before the deadline scores 0.
//	Update Effectiveness F(λ): the fraction of (i,j) with U < D.
//	Update Efficiency E(λ): mean over runs of m/y, with m the minimum
//	    zero-failure effort across all systems (m = 7 in the paper). No
//	    figure reads E, so only the tests keep it (Cell.efficiency).
//	Efficiency Degradation G(λ): mean over runs of m′/y, with m′ the
//	    system's own zero-failure effort.
package metrics

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// UserOutcome is one User's result in one run.
type UserOutcome struct {
	User netsim.NodeID
	// Reached reports whether the User obtained the post-change version
	// before the deadline; At is when.
	Reached bool
	At      sim.Time
	// Excluded marks a User that churned out of the network and was still
	// absent at the deadline without having reached consistency. Such
	// Users contribute no U(i,j) sample: they left, so their staleness is
	// departure, not a protocol failure.
	Excluded bool
}

// RunResult is the raw observation of a single simulation run.
type RunResult struct {
	Seed     int64
	ChangeAt sim.Time // C(i): when the service changed
	Deadline sim.Time // D: the end of the run
	Users    []UserOutcome
	// Effort is y(i,λ): counted discovery-layer sends in the recovery
	// window [C, min(t_allConsistent, D)] (+ the in-flight pad).
	Effort int
	// Diagnostics, not part of the metrics.
	TotalDiscoverySends int
	TotalTransport      int
}

// Unreached counts the Users that never held the post-change version.
func (r RunResult) Unreached() (n int) {
	for _, u := range r.Users {
		if !u.Reached {
			n++
		}
	}
	return n
}

// AppendResponsivenesses appends the per-User responsiveness samples
// 1 − L of one run to dst (0 for Users that never reached consistency;
// excluded, churned-out Users contribute no sample) and returns the
// extended slice. The sweep aggregation recycles each cell slot's sample
// storage across repeated summarization through it.
func (r RunResult) AppendResponsivenesses(dst []float64) []float64 {
	avail := float64(r.Deadline - r.ChangeAt)
	for _, u := range r.Users {
		if u.Excluded {
			continue
		}
		if !u.Reached || u.At >= r.Deadline || avail <= 0 {
			dst = append(dst, 0)
			continue
		}
		l := float64(u.At-r.ChangeAt) / avail
		dst = append(dst, stats.Clamp(1-l, 0, 1))
	}
	return dst
}

// Point is the aggregated metric values of one system at one failure
// rate.
type Point struct {
	Responsiveness float64 // R(λ)
	Effectiveness  float64 // F(λ)
	Degradation    float64 // G(λ)
}

// Curve is a metric series over failure rates for one system — one line
// in the paper's Figures 4–7.
type Curve struct {
	Points []Point
}

// Average returns the Table 5-style averages of the curve across all
// failure rates.
func (c Curve) Average() (responsiveness, effectiveness, degradation float64) {
	var r, f, g []float64
	for _, p := range c.Points {
		r = append(r, p.Responsiveness)
		f = append(f, p.Effectiveness)
		g = append(g, p.Degradation)
	}
	return stats.Mean(r), stats.Mean(f), stats.Mean(g)
}
