package metrics

import (
	"math"

	"repro/internal/stats"
)

// RunSummary is the per-run digest the sweep aggregation retains instead
// of the full RunResult: a handful of counters plus the responsiveness
// samples. Everything that feeds a mean is folded through streaming
// (Welford) accumulators at aggregation time; the responsiveness samples
// are kept because the paper's R(λ) is a median — an order statistic that
// cannot be streamed in O(1).
type RunSummary struct {
	// Effort is y(i,λ), the counted discovery sends in the recovery window.
	Effort int
	// Reached and Counted tally the non-excluded Users that reached the
	// target version before the deadline, and all non-excluded Users.
	Reached, Counted int
	// Resp holds the per-User responsiveness samples 1 − L.
	Resp []float64
}

// SummarizeInto digests one run, appending the responsiveness samples to
// resp (which may be nil or a recycled slice truncated by the caller) so
// repeated summarization into the same cell slot reuses its storage.
func SummarizeInto(r RunResult, resp []float64) RunSummary {
	s := RunSummary{Effort: r.Effort, Resp: r.AppendResponsivenesses(resp)}
	for _, u := range r.Users {
		if u.Excluded {
			continue
		}
		s.Counted++
		if u.Reached && u.At < r.Deadline {
			s.Reached++
		}
	}
	return s
}

// Cell accumulates one (system, λ) grid cell of a sweep. Summaries are
// slotted by run index so that aggregation is bit-identical regardless of
// the order workers complete runs in: floating-point folds happen in run
// order at Point time, never in arrival order.
type Cell struct {
	perRun []RunSummary
	have   []bool
	filled int
}

// NewCell creates an accumulator for up to runs runs. Adding beyond runs
// grows the cell.
func NewCell(runs int) *Cell {
	if runs < 0 {
		runs = 0
	}
	return &Cell{perRun: make([]RunSummary, runs), have: make([]bool, runs)}
}

// AddResult summarizes one run straight into its slot, recycling the
// slot's previous responsiveness storage — the allocation-free path the
// sweep aggregation feeds.
func (c *Cell) AddResult(run int, r RunResult) {
	c.grow(run)
	if !c.have[run] {
		c.filled++
	}
	c.perRun[run] = SummarizeInto(r, c.perRun[run].Resp[:0])
	c.have[run] = true
}

func (c *Cell) grow(run int) {
	for run >= len(c.perRun) {
		c.perRun = append(c.perRun, RunSummary{})
		c.have = append(c.have, false)
	}
}

// Runs reports how many summaries have been added.
func (c *Cell) Runs() int { return c.filled }

// MinPositiveEffort reports the smallest positive effort across the
// cell's runs — the measured m′ when the cell is the λ=0 column; the
// paper fixes m′ per system (7, 14, 15, 7, 7). A cell with no positive
// effort falls back to 1.
func (c *Cell) MinPositiveEffort() int {
	min := math.MaxInt
	for i, s := range c.perRun {
		if c.have[i] && s.Effort > 0 && s.Effort < min {
			min = s.Effort
		}
	}
	if min == math.MaxInt {
		return 1
	}
	return min
}

// Point aggregates the cell into the paper's metrics; mPrime is the
// system's own minimum zero-failure effort.
func (c *Cell) Point(mPrime int) Point {
	if c.filled == 0 {
		return Point{Responsiveness: math.NaN(), Effectiveness: math.NaN(), Degradation: math.NaN()}
	}
	var p Point
	var resp []float64
	reached, total := 0, 0
	var deg stats.Welford
	for i, s := range c.perRun {
		if !c.have[i] {
			continue
		}
		resp = append(resp, s.Resp...)
		reached += s.Reached
		total += s.Counted
		if s.Effort > 0 {
			deg.Add(float64(mPrime) / float64(s.Effort))
		} else {
			// No effort spent can only mean nothing was propagated at
			// all; treat as fully efficient to avoid division by zero.
			deg.Add(1)
		}
	}
	p.Responsiveness = stats.Median(resp)
	if total > 0 {
		p.Effectiveness = float64(reached) / float64(total)
	} else {
		// Every User churned out: there are no U(i,j) samples at all,
		// which is "no data", not zero effectiveness.
		p.Effectiveness = math.NaN()
	}
	p.Degradation = stats.Clamp(deg.Mean(), 0, 1)
	return p
}
