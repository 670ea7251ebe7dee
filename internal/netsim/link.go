package netsim

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// This file holds the link-conditioning models: everything beyond the
// paper's idealized network (uniform one-way delay, i.i.d. per-frame
// loss). The models slot in behind the existing zero-alloc fast path —
// per-frame state lives in flat per-network arrays prepared up front, and
// non-uniform delay draws come from a precomputed inverse-CDF table, so
// the conditioned paths stay allocation-free. The zero LinkConfig is a
// behavioral no-op: it makes exactly the RNG draws the unconditioned
// network makes, so default runs replay bit for bit.

// LinkConfig selects the adversarial link-conditioning models. The zero
// value reproduces the paper's network exactly.
type LinkConfig struct {
	// Burst replaces the i.i.d. Config.Loss with Gilbert–Elliott
	// two-state burst loss. Enabled when Burst.Enabled(); Config.Loss
	// must then be zero (the two loss models are alternatives).
	Burst BurstConfig
	// Delay replaces the uniform one-way delay with a heavy-tailed
	// distribution. The zero value keeps U[MinDelay, MaxDelay].
	Delay DelayConfig
	// Reorder adds probabilistic extra delay to individual frames, so a
	// pair's frames can arrive out of send order far beyond what the
	// base delay spread produces.
	Reorder ReorderConfig
}

// validate is folded into Config.validate.
func (l LinkConfig) validate() error {
	if err := l.Burst.validate(); err != nil {
		return err
	}
	if err := l.Delay.validate(); err != nil {
		return err
	}
	if l.Reorder.Prob < 0 || l.Reorder.Prob > 1 {
		return fmt.Errorf("netsim: reorder probability %v out of [0,1]", l.Reorder.Prob)
	}
	if l.Reorder.Extra < 0 {
		return fmt.Errorf("netsim: negative reorder extra delay %v", l.Reorder.Extra)
	}
	return nil
}

// BurstConfig is the Gilbert–Elliott two-state loss chain. Each receiver
// has its own chain, advanced once per frame addressed to it: in the Good
// state frames drop with GoodLoss (usually 0), in the Bad state with
// BadLoss; after the loss draw the chain transitions with GoodToBad or
// BadToGood. The stationary loss rate is π_B·BadLoss + π_G·GoodLoss with
// π_B = GoodToBad/(GoodToBad+BadToGood), and with BadLoss=1 burst lengths
// are geometric with mean 1/BadToGood.
type BurstConfig struct {
	GoodToBad float64
	BadToGood float64
	GoodLoss  float64
	BadLoss   float64
}

// Enabled reports whether the burst model is active.
func (b BurstConfig) Enabled() bool { return b.GoodToBad > 0 && b.BadLoss > 0 }

func (b BurstConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"GoodToBad", b.GoodToBad}, {"BadToGood", b.BadToGood},
		{"GoodLoss", b.GoodLoss}, {"BadLoss", b.BadLoss},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netsim: burst %s %v out of [0,1]", p.name, p.v)
		}
	}
	if b.Enabled() && b.BadToGood <= 0 {
		return fmt.Errorf("netsim: burst BadToGood must be positive (bursts would never end)")
	}
	return nil
}

// BurstForAverage builds a Gilbert–Elliott chain whose stationary loss
// rate equals avg with geometric bursts of the given mean length — the
// apples-to-apples counterpart of an i.i.d. Config.Loss of avg, for
// comparing the two models at equal average rate.
func BurstForAverage(avg, meanBurst float64) BurstConfig {
	if avg <= 0 || avg >= 1 || meanBurst < 1 {
		panic(fmt.Sprintf("netsim: BurstForAverage(%v, %v) needs avg in (0,1) and meanBurst ≥ 1", avg, meanBurst))
	}
	// GoodToBad = avg/((1-avg)·meanBurst) must stay a probability: the
	// stationary rate avg is unreachable when bursts are too short to
	// spend avg of the time in Bad (avg/(1-avg) > meanBurst).
	if avg/(1-avg) > meanBurst {
		panic(fmt.Sprintf("netsim: BurstForAverage(%v, %v) infeasible: needs meanBurst ≥ avg/(1-avg) = %.3f",
			avg, meanBurst, avg/(1-avg)))
	}
	pBG := 1 / meanBurst
	return BurstConfig{
		GoodToBad: avg * pBG / (1 - avg),
		BadToGood: pBG,
		BadLoss:   1,
	}
}

// DelayDist selects the one-way delay distribution.
type DelayDist uint8

const (
	// DelayUniform is the paper's U[MinDelay, MaxDelay].
	DelayUniform DelayDist = iota
	// DelayLognormal is a lognormal with median (MinDelay+MaxDelay)/2 and
	// shape Sigma, floored at MinDelay and capped at Cap.
	DelayLognormal
	// DelayPareto is a Pareto tail with median (MinDelay+MaxDelay)/2 and
	// exponent Alpha, floored at MinDelay and capped at Cap.
	DelayPareto
)

func (d DelayDist) String() string {
	switch d {
	case DelayUniform:
		return "uniform"
	case DelayLognormal:
		return "lognormal"
	case DelayPareto:
		return "pareto"
	default:
		return "?"
	}
}

// ParseDelayDist resolves a distribution name.
func ParseDelayDist(s string) (DelayDist, error) {
	switch s {
	case "uniform", "":
		return DelayUniform, nil
	case "lognormal":
		return DelayLognormal, nil
	case "pareto":
		return DelayPareto, nil
	default:
		return DelayUniform, fmt.Errorf("netsim: unknown delay distribution %q", s)
	}
}

// DelayConfig parameterizes the heavy-tailed delay models. Draws come
// from a precomputed inverse-CDF table (delayTableSize quantiles), so the
// per-frame cost is one RNG draw and one index — the same as uniform.
type DelayConfig struct {
	Dist DelayDist
	// Sigma is the lognormal shape; 0 means 1.0.
	Sigma float64
	// Alpha is the Pareto tail exponent; 0 means 1.5.
	Alpha float64
	// Cap bounds the tail; 0 means 100×MaxDelay.
	Cap sim.Duration
}

func (d DelayConfig) validate() error {
	switch d.Dist {
	case DelayUniform, DelayLognormal, DelayPareto:
	default:
		return fmt.Errorf("netsim: unknown delay distribution %d", d.Dist)
	}
	if d.Sigma < 0 {
		return fmt.Errorf("netsim: negative lognormal sigma %v", d.Sigma)
	}
	if d.Alpha < 0 {
		return fmt.Errorf("netsim: negative Pareto alpha %v", d.Alpha)
	}
	if d.Cap < 0 {
		return fmt.Errorf("netsim: negative delay cap %v", d.Cap)
	}
	return nil
}

// delayTableSize is the inverse-CDF discretization. 4096 quantiles keep
// the table within one page and the tail resolution below 0.025%.
const delayTableSize = 4096

// delayTableKey identifies the inputs a delay table was built from, so
// Reset/Rearm with an unchanged configuration skip the rebuild.
type delayTableKey struct {
	d        DelayConfig
	min, max sim.Duration
}

// buildDelayTable precomputes the quantile table for a non-uniform delay
// configuration. Entry i is the ((i+0.5)/N)-quantile, clamped to
// [MinDelay, cap]; sampling a uniform index then reproduces the
// distribution up to the discretization.
func buildDelayTable(table []sim.Duration, d DelayConfig, min, max sim.Duration) []sim.Duration {
	table = table[:0]
	capD := d.Cap
	if capD == 0 {
		capD = 100 * max
	}
	sigma := d.Sigma
	if sigma == 0 {
		sigma = 1.0
	}
	alpha := d.Alpha
	if alpha == 0 {
		alpha = 1.5
	}
	mid := float64(min+max) / 2
	mu := math.Log(mid)
	// Anchor the Pareto median at the uniform midpoint, so the
	// distributions differ in tail weight, not in scale.
	xm := mid / math.Pow(2, 1/alpha)
	for i := 0; i < delayTableSize; i++ {
		p := (float64(i) + 0.5) / delayTableSize
		var v float64
		switch d.Dist {
		case DelayLognormal:
			// Φ⁻¹(p) via the error function inverse.
			v = math.Exp(mu + sigma*math.Sqrt2*math.Erfinv(2*p-1))
		case DelayPareto:
			v = xm / math.Pow(1-p, 1/alpha)
		}
		dur := sim.Duration(v)
		if dur < min {
			dur = min
		}
		if dur > capD {
			dur = capD
		}
		table = append(table, dur)
	}
	return table
}

// ReorderConfig adds out-of-order delivery: each frame independently
// receives Extra additional delay with probability Prob, letting later
// frames on the same pair overtake it.
type ReorderConfig struct {
	Prob  float64
	Extra sim.Duration
}

// Gilbert–Elliott chain states, per receiver.
const (
	geGood uint8 = iota
	geBad
)

// prepareLink (re)builds the per-network conditioning state for the
// current configuration: the per-receiver Gilbert–Elliott states (all
// Good) and the delay quantile table (rebuilt only when its inputs
// changed). Called from New, Reset and Rearm.
func (nw *Network) prepareLink() {
	nw.burstOn = nw.cfg.Link.Burst.Enabled()
	if nw.burstOn {
		need := len(nw.nodes)
		if cap(nw.geState) < need {
			nw.geState = make([]uint8, need)
		} else {
			nw.geState = nw.geState[:need]
			clear(nw.geState)
		}
	} else {
		nw.geState = nw.geState[:0]
	}
	if nw.cfg.Link.Delay.Dist == DelayUniform {
		nw.delayTable = nil
		return
	}
	key := delayTableKey{d: nw.cfg.Link.Delay, min: nw.cfg.MinDelay, max: nw.cfg.MaxDelay}
	if nw.delayTable != nil && nw.delayKey == key {
		return
	}
	nw.delayTable = buildDelayTable(nw.delayTable, nw.cfg.Link.Delay, nw.cfg.MinDelay, nw.cfg.MaxDelay)
	nw.delayKey = key
}

// linkLose draws the loss decision for one frame addressed to `to`. With
// the burst model off this is exactly the unconditioned i.i.d. draw —
// same branches, same RNG consumption — so default configs replay the
// paper's runs bit for bit.
func (nw *Network) linkLose(to NodeID) bool {
	if nw.burstOn {
		return nw.geLose(to)
	}
	return nw.cfg.Loss > 0 && nw.k.Float64() < nw.cfg.Loss
}

// geLose advances the receiver's Gilbert–Elliott chain by one frame.
func (nw *Network) geLose(to NodeID) bool {
	b := nw.cfg.Link.Burst
	st := &nw.geState[to]
	var lost bool
	if *st == geBad {
		lost = nw.k.Float64() < b.BadLoss
		if nw.k.Float64() < b.BadToGood {
			*st = geGood
		}
	} else {
		if b.GoodLoss > 0 {
			lost = nw.k.Float64() < b.GoodLoss
		}
		if nw.k.Float64() < b.GoodToBad {
			*st = geBad
		}
	}
	return lost
}

// linkDelay draws the one-way delay for one frame. The uniform default
// is the unconditioned draw; the table path costs the same single draw.
func (nw *Network) linkDelay() sim.Duration {
	var d sim.Duration
	if nw.delayTable != nil {
		d = nw.delayTable[nw.k.Rand().Intn(delayTableSize)]
	} else {
		d = nw.k.UniformDuration(nw.cfg.MinDelay, nw.cfg.MaxDelay)
	}
	if r := nw.cfg.Link.Reorder; r.Prob > 0 && nw.k.Float64() < r.Prob {
		d += r.Extra
	}
	return d
}
