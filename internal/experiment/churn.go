package experiment

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Churn is the population-dynamics model layered over a scenario: Users
// leave the network mid-run and new Users arrive, both as Poisson
// processes. The zero value disables churn, reproducing the paper's
// static population.
//
// Departure takes the User's interfaces down — the device left, its
// protocol state intact but unreachable — exactly the condition the
// purge-rediscovery techniques are specified against. On rejoin the
// interfaces come back and the protocols re-discover on their own: the
// cache lease expires during a long absence (PR5), so the User returns
// to active search and rebuilds its subscription.
//
// Churn composes with the λ interface-failure model statistically, not
// per-node: a node can be hit by both schedules, in which case a failure
// recovery may reconnect a departed User early. Invariant tests
// therefore probe churn at λ=0.
type Churn struct {
	// Departures is the expected number of departures per initial User
	// over the whole run (the Poisson hazard while present).
	Departures float64
	// MeanAbsence is the mean of the exponential time a departed User
	// stays away before rejoining. 0 makes departures permanent.
	MeanAbsence sim.Duration
	// Arrivals is the expected number of fresh Users joining over the
	// whole run (a Poisson process on [0, RunDuration)). Arrivals boot
	// immediately, discover the running system, and are measured like
	// initial Users.
	Arrivals float64
}

// Enabled reports whether the model does anything.
func (c Churn) Enabled() bool { return c.Departures > 0 || c.Arrivals > 0 }

// scheduleChurn pre-draws the whole churn schedule and arms the events
// before the run starts: all randomness is consumed up front so runs stay
// deterministic and independent of worker parallelism. Departures are
// drawn per initial User; arrivals are numbered on from the boot Users,
// in arrival order.
func (s *Scenario) scheduleChurn(c Churn, runDuration sim.Duration) {
	if !c.Enabled() || runDuration <= 0 {
		return
	}
	horizon := sim.Time(runDuration)

	if c.Departures > 0 {
		meanUp := sim.Duration(float64(runDuration) / c.Departures)
		for _, uid := range s.UserIDs {
			s.scheduleUserChurn(uid, meanUp, c.MeanAbsence, horizon)
		}
	}

	if c.Arrivals > 0 {
		meanGap := float64(runDuration) / c.Arrivals
		next := s.Topo.Users
		for t := s.expAfter(0, meanGap); t < horizon; t = s.expAfter(t, meanGap) {
			s.scheduleArrival(t, userName(next))
			next++
		}
	}
}

// scheduleArrival arms one mid-run User arrival.
func (s *Scenario) scheduleArrival(at sim.Time, name string) {
	s.K.At(at, func() { s.arrive(name) })
}

// scheduleUserChurn draws one User's alternating present/absent renewal
// process up to the horizon and arms the transitions. A permanent
// departure (no rejoin) retires the node so its slot can be recycled.
func (s *Scenario) scheduleUserChurn(uid netsim.NodeID, meanUp, meanAbsence sim.Duration, horizon sim.Time) {
	t := sim.Time(0)
	for {
		t = s.expAfter(t, float64(meanUp))
		if t >= horizon {
			return
		}
		if meanAbsence <= 0 {
			s.K.At(t, func() { s.departForever(uid) })
			return
		}
		s.K.At(t, func() { s.setPresent(uid, false) })
		t = s.expAfter(t, float64(meanAbsence))
		if t >= horizon {
			return
		}
		s.K.At(t, func() { s.setPresent(uid, true) })
	}
}

// departForever handles a departure with no scheduled rejoin: the device
// left for good. When the protocol instance can be quiesced, the User's
// outcome is frozen (nothing can change once its interfaces are pinned
// down), its ledgers are released and the node slot is retired so a later
// Poisson arrival reuses it — keeping the node table bounded by the peak
// population instead of growing for the whole run. A node that cannot be
// quiesced (a FRODO 300D User serving as Central or Backup) just goes
// dark like before, keeping its slot.
func (s *Scenario) departForever(uid netsim.NodeID) {
	s.setPresent(uid, false)
	if u := s.users[uid]; u == nil || !u.Stop() {
		return
	}
	at, reached := s.rec.first[uid]
	s.retired = append(s.retired, metrics.UserOutcome{User: uid, Reached: reached, At: at, Excluded: !reached})
	delete(s.rec.first, uid)
	delete(s.absent, uid)
	delete(s.users, uid)
	for i, id := range s.UserIDs {
		if id == uid {
			s.UserIDs = append(s.UserIDs[:i], s.UserIDs[i+1:]...)
			break
		}
	}
	s.Net.Retire(uid)
}

// expAfter draws the next event of an exponential inter-arrival process.
func (s *Scenario) expAfter(t sim.Time, mean float64) sim.Time {
	return t + sim.Time(s.K.Rand().ExpFloat64()*mean)
}

// setPresent applies a churn transition: both interfaces follow the
// User's presence, and the absence ledger feeds the metric exclusion.
func (s *Scenario) setPresent(uid netsim.NodeID, present bool) {
	n := s.Net.Node(uid)
	n.SetTx(present)
	n.SetRx(present)
	s.absent[uid] = !present
}

// AbsentAtEnd reports whether the User was churned out when the run
// ended. Such Users are excluded from the U(i,j) samples unless they
// reached consistency before leaving.
func (s *Scenario) AbsentAtEnd(uid netsim.NodeID) bool { return s.absent[uid] }
