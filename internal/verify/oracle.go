package verify

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/frodo"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The run-time consistency oracle. Where the grid checker (verify.Check)
// enumerates outage scenarios and inspects only the end state, the
// Oracle rides along inside a single run — attached to the Scenario
// through the trace layer and the cache-write tap — and audits explicit
// invariants online, frame by frame. It is protocol-agnostic: everything
// it checks is observable from the shared wire vocabulary
// (discovery.*), the node event stream and the consistency listener, so
// the same oracle audits all five systems under any schedule the
// experiment layer can produce — including the adversarial ones
// (burst loss, heavy-tailed delay, partitions) the link models open up.

// Invariant identifies one run-time invariant the Oracle audits.
type Invariant uint8

const (
	// InvVersionBound: no User may ever hold a service version newer
	// than the Manager has published. A violation means fabricated or
	// corrupted state somewhere in the propagation path.
	InvVersionBound Invariant = iota
	// InvLeasePurge: lease-expired entries must be purged within the
	// bound — a holder must never acknowledge a renewal that arrived
	// more than PurgeSlack after the lease it refreshes ran out.
	InvLeasePurge
	// InvSingleCentral: after a partition heals (plus HealSlack), the
	// FRODO election must have converged back to exactly one Central.
	InvSingleCentral
	// InvRetiredSilence: a retired (churned-out) node must never emit
	// frames beyond the wire-redundancy grace window — a late frame
	// means a zombie timer survived the quiesce.
	InvRetiredSilence

	numInvariants = 4
)

func (i Invariant) String() string {
	switch i {
	case InvVersionBound:
		return "version-bound"
	case InvLeasePurge:
		return "lease-purge"
	case InvSingleCentral:
		return "single-central"
	case InvRetiredSilence:
		return "retired-silence"
	default:
		return "?"
	}
}

// FaultBound is a fault-conditional waiver: an invariant breach inside
// the window is recorded as waived, not as a violation. Bounds document
// the provably-unfixable findings of the hardening pass — failures whose
// root cause is the injected fault itself (e.g. a Central that is the
// only node on its partition side cannot converge before the heal), not
// a protocol defect any holder-side mechanism could close. Every waiver
// is still counted and carries its reason into the report, so a bound
// never silently hides a regression elsewhere in the window.
type FaultBound struct {
	Invariant Invariant
	Start     sim.Time
	End       sim.Time // zero means unbounded
	Reason    string
}

// covers reports whether the bound waives inv at time t.
func (b FaultBound) covers(inv Invariant, t sim.Time) bool {
	return b.Invariant == inv && t >= b.Start && (b.End == 0 || t <= b.End)
}

// OracleConfig bounds the oracle's tolerances. The zero value of any
// field falls back to the defaults of DefaultOracleConfig.
type OracleConfig struct {
	// PurgeSlack is the grace beyond a lease's expiry before an
	// acknowledged renewal becomes a violation.
	PurgeSlack sim.Duration
	// RetireGrace tolerates the multicast-stagger redundancy train still
	// in flight when a node retires; protocol timers fire on second
	// scales, so anything beyond the grace is a real zombie.
	RetireGrace sim.Duration
	// Partitions is the partition schedule of the observed run; the
	// oracle probes Central convergence HealSlack after each heal.
	Partitions []netsim.Partition
	// HealSlack is how long after a heal the election must have
	// converged. It must exceed the FRODO Central timeout plus one
	// announcement period, so demotions have provably had time to land.
	HealSlack sim.Duration
	// CentralWindow is how recent a Registry-role announcement must be
	// to count as a live Central claim at probe time; it must exceed the
	// announcement period.
	CentralWindow sim.Duration
	// ExpectCentral enables the single-Central probes — FRODO systems
	// only (Jini legitimately runs several Registries).
	ExpectCentral bool
	// MaxViolations caps the retained violation details; the per-
	// invariant counts are always complete.
	MaxViolations int
	// Bounds are the fault-conditional waivers in force for this run.
	Bounds []FaultBound
	// OnViolation, when set, fires synchronously on every non-waived
	// violation, on the goroutine that detected it. The live driver and
	// traced fixture
	// replays use it to freeze flight recorders at the first breach, so
	// the rings hold the events leading up to it, not the aftermath. The
	// hook must not touch any kernel or draw randomness.
	OnViolation func(OracleViolation)
}

// DefaultOracleConfig returns the oracle tolerances for one system:
// lease and election bounds follow the §5 parameters.
func DefaultOracleConfig(sys experiment.System) OracleConfig {
	fcfg := frodo.DefaultConfig()
	return OracleConfig{
		PurgeSlack:    5 * sim.Second,
		RetireGrace:   10 * sim.Second,
		HealSlack:     fcfg.CentralTimeout + fcfg.AnnouncePeriod + 60*sim.Second,
		CentralWindow: fcfg.AnnouncePeriod + 60*sim.Second,
		ExpectCentral: sys == experiment.Frodo3P || sys == experiment.Frodo2P,
		MaxViolations: 100,
	}
}

// CoverageBuckets is the resolution of the per-invariant slack
// histograms: bucket 0 holds margins under a second (or at the exact
// bound), bucket k margins in [2^(k-1), 2^k) seconds, and the last
// bucket everything comfortable beyond that. For the version-bound
// invariant the "margin" is a version count, bucketed directly.
const CoverageBuckets = 8

// OracleCoverage is the oracle's behavioral coverage signal: how close
// each invariant came to violating, not just whether it did. A scenario
// fuzzer keeps candidates that push an invariant into a slack bucket or
// near-miss region no earlier candidate reached — the gradient toward
// a violation that binary clean/violated feedback cannot provide.
type OracleCoverage struct {
	// NearMisses counts events in the final grace region before a
	// violation: a RenewAck inside PurgeSlack after expiry, a retired
	// node's frame inside RetireGrace, a heal probe whose sole live
	// claim is older than half the CentralWindow, a cache write exactly
	// at the published bound after at least one change.
	NearMisses [numInvariants]int
	// Slack histograms the margin left on every non-violating check.
	Slack [numInvariants][CoverageBuckets]int
}

// Merge accumulates other into c, for multi-run aggregation.
func (c *OracleCoverage) Merge(other OracleCoverage) {
	for i := range c.NearMisses {
		c.NearMisses[i] += other.NearMisses[i]
		for b := range c.Slack[i] {
			c.Slack[i][b] += other.Slack[i][b]
		}
	}
}

// slackBucket maps a time margin onto a histogram bucket: <1s (or
// negative, i.e. inside a grace region) → 0, then doubling second
// ranges, saturating at the top bucket.
func slackBucket(margin sim.Duration) int {
	if margin < sim.Second {
		return 0
	}
	s := int64(margin / sim.Second)
	b := 1
	for s > 1 && b < CoverageBuckets-1 {
		s >>= 1
		b++
	}
	return b
}

// countBucket maps a non-negative count (version gap) onto a bucket.
func countBucket(n uint64) int {
	if n >= CoverageBuckets {
		return CoverageBuckets - 1
	}
	return int(n)
}

// OracleViolation is one observed invariant breach.
type OracleViolation struct {
	At        sim.Time
	Invariant Invariant
	Node      netsim.NodeID
	Detail    string
}

func (v OracleViolation) String() string {
	return fmt.Sprintf("%.3fs %s node %d: %s", v.At.Sec(), v.Invariant, v.Node, v.Detail)
}

// OracleReport summarizes one audited run.
type OracleReport struct {
	// Total counts every violation, including ones past MaxViolations.
	Total int
	// ByInvariant breaks the total down.
	ByInvariant [numInvariants]int
	// Violations retains the first MaxViolations details.
	Violations []OracleViolation
	// Coverage carries the near-miss/slack signal alongside the
	// verdict, so one audited run yields both.
	Coverage OracleCoverage
	// ProbesScheduled and ProbesRun count the single-central heal
	// probes. A probe scheduled past the run deadline never fires; the
	// difference makes that visible instead of silently vacuous — a run
	// with pending probes is NOT Clean. Extend Params.RunDuration so
	// every partition heal leaves HealSlack before the deadline.
	ProbesScheduled, ProbesRun int
	// Waived counts breaches absorbed by fault-conditional bounds
	// (OracleConfig.Bounds); WaivedDetails retains them with their
	// waiver reasons, capped like Violations. Waived breaches do not
	// affect Clean — that is the bound's whole point — but they stay
	// visible so a bound never reads as "nothing happened".
	Waived        int
	WaivedDetails []OracleViolation
	// MaxPurgeLate is the worst observed RenewAck lateness past its
	// lease's expiry (zero when every ack beat the expiry): the
	// purge-latency axis of the hardening figure.
	MaxPurgeLate sim.Duration
}

// Clean reports whether the run satisfied every invariant AND every
// scheduled heal probe actually ran.
func (r OracleReport) Clean() bool { return r.Total == 0 && r.ProbesRun == r.ProbesScheduled }

func (r OracleReport) String() string {
	if pending := r.ProbesScheduled - r.ProbesRun; pending > 0 {
		return fmt.Sprintf("oracle: %d violations, %d heal probes never ran (deadline before heal+HealSlack — extend RunDuration)",
			r.Total, pending)
	}
	if r.Clean() {
		if r.Waived > 0 {
			return fmt.Sprintf("oracle: all invariants held (%d breaches waived under fault-conditional bounds)", r.Waived)
		}
		return "oracle: all invariants held"
	}
	return fmt.Sprintf("oracle: %d violations (version-bound %d, lease-purge %d, single-central %d, retired-silence %d)",
		r.Total, r.ByInvariant[InvVersionBound], r.ByInvariant[InvLeasePurge],
		r.ByInvariant[InvSingleCentral], r.ByInvariant[InvRetiredSilence])
}

// leaseKey identifies one lease entry from the outside: who holds it,
// who refreshes it, and which Manager's service it concerns.
type leaseKey struct {
	holder  netsim.NodeID
	renewer netsim.NodeID
	manager netsim.NodeID
}

// Oracle audits a run online. It implements netsim.Tracer (attached as a
// tee alongside any event log) and discovery.ConsistencyListener
// (one of the run's cache-write taps). Construct with
// NewOracle for a hand-driven fixture or AttachOracle for a Scenario.
type Oracle struct {
	cfg     OracleConfig
	k       *sim.Kernel
	manager netsim.NodeID

	// published is the highest version the measured Manager has ever
	// published: 1 at boot, bumped on every scheduled change.
	published uint64
	// retiredAt records when each currently-retired node left; AddNode
	// reuse clears the entry ("attached").
	retiredAt map[netsim.NodeID]sim.Time
	// leases tracks the expiry of every lease whose creation the oracle
	// observed (Register/Subscribe delivery), refreshed by observed
	// renewals.
	leases map[leaseKey]sim.Time
	// claims records each node's latest *delivered* Registry-role
	// announcement; the heal probes count claims within CentralWindow.
	// Recording at delivery — not at send — is deliberate: an announcement
	// that never reached any receiver is no evidence the election has a
	// live, observable Central, so a partition-isolated announcer whose
	// frames all die on the wire must not "pass" the probe.
	claims   map[netsim.NodeID]sim.Time
	sawClaim bool

	total           int
	byInvariant     [numInvariants]int
	cov             OracleCoverage
	violations      []OracleViolation
	probesScheduled int
	probesRun       int
	waived          int
	waivedDetails   []OracleViolation
	maxPurgeLate    sim.Duration

	// Optional telemetry mirrors (metricsInto): near-miss and violation
	// counts double-written into an obs registry as they accumulate.
	nmCounters   [numInvariants]*obs.Counter
	violCounters [numInvariants]*obs.Counter
}

// NewOracle builds an oracle on a kernel, scheduling its partition-heal
// probes. manager scopes the version-bound invariant; pass netsim.NoNode
// to audit every manager's versions against the same publication count.
func NewOracle(k *sim.Kernel, manager netsim.NodeID, cfg OracleConfig) *Oracle {
	def := DefaultOracleConfig(experiment.UPnP)
	if cfg.PurgeSlack == 0 {
		cfg.PurgeSlack = def.PurgeSlack
	}
	if cfg.RetireGrace == 0 {
		cfg.RetireGrace = def.RetireGrace
	}
	if cfg.HealSlack == 0 {
		cfg.HealSlack = def.HealSlack
	}
	if cfg.CentralWindow == 0 {
		cfg.CentralWindow = def.CentralWindow
	}
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = def.MaxViolations
	}
	o := &Oracle{
		cfg: cfg, k: k, manager: manager,
		published: 1,
		retiredAt: map[netsim.NodeID]sim.Time{},
		leases:    map[leaseKey]sim.Time{},
		claims:    map[netsim.NodeID]sim.Time{},
	}
	if cfg.ExpectCentral {
		for _, p := range cfg.Partitions {
			at := p.End() + sim.Time(cfg.HealSlack)
			o.probesScheduled++
			o.k.At(at, o.probeCentral)
		}
	}
	return o
}

// AttachOracle hooks an oracle onto a built Scenario — the one attach
// path for simulated and live runs: the network tracer tee, the
// cache-write and change taps, and, when the scenario meters into a
// registry, the sd_oracle_* mirrors. Call it from RunSpec.Attach; the
// oracle stays valid after the run (its report is plain data), while
// the Scenario itself may be recycled.
func AttachOracle(sc *experiment.Scenario, cfg OracleConfig) *Oracle {
	o := NewOracle(sc.K, sc.ManagerID, cfg)
	if reg := sc.Telemetry(); reg != nil {
		o.metricsInto(reg)
	}
	sc.AddTracer(o)
	sc.TapConsistency(o)
	sc.TapChange(o.NotePublished)
	return o
}

// ObserveRun executes one run with the oracle attached and returns its
// report alongside the run's metrics. A nil cfg.Partitions inherits the
// run's own partition schedule, so heal probes follow the spec.
func ObserveRun(spec experiment.RunSpec, cfg OracleConfig) (OracleReport, metrics.RunResult) {
	if cfg.Partitions == nil {
		cfg.Partitions = spec.Params.Partitions
	}
	var o *Oracle
	prev := spec.Attach
	spec.Attach = func(sc *experiment.Scenario) {
		if prev != nil {
			prev(sc)
		}
		o = AttachOracle(sc, cfg)
	}
	res := experiment.Run(spec)
	return o.Report(), res
}

// Report summarizes the audit so far; call it after the run completes.
func (o *Oracle) Report() OracleReport {
	return OracleReport{Total: o.total, ByInvariant: o.byInvariant, Violations: o.violations,
		Coverage: o.cov, ProbesScheduled: o.probesScheduled, ProbesRun: o.probesRun,
		Waived: o.waived, WaivedDetails: o.waivedDetails, MaxPurgeLate: o.maxPurgeLate}
}

// Coverage returns the near-miss/slack signal accumulated so far.
func (o *Oracle) Coverage() OracleCoverage { return o.cov }

// NotePublished is the change tap: the measured Manager published a new
// version. AttachOracle wires it through Scenario.TapChange.
func (o *Oracle) NotePublished() { o.published++ }

func (o *Oracle) violate(inv Invariant, node netsim.NodeID, format string, args ...any) {
	now := o.k.Now()
	for _, b := range o.cfg.Bounds {
		if b.covers(inv, now) {
			o.waived++
			if len(o.waivedDetails) < o.cfg.MaxViolations {
				o.waivedDetails = append(o.waivedDetails, OracleViolation{
					At: now, Invariant: inv, Node: node,
					Detail: fmt.Sprintf(format, args...) + " [waived: " + b.Reason + "]",
				})
			}
			return
		}
	}
	o.total++
	o.byInvariant[inv]++
	if c := o.violCounters[inv]; c != nil {
		c.Inc()
	}
	v := OracleViolation{At: now, Invariant: inv, Node: node, Detail: fmt.Sprintf(format, args...)}
	if len(o.violations) < o.cfg.MaxViolations {
		o.violations = append(o.violations, v)
	}
	if o.cfg.OnViolation != nil {
		o.cfg.OnViolation(v)
	}
}

// nearMiss counts one event in an invariant's final grace region,
// mirroring it into the telemetry registry when one is attached.
func (o *Oracle) nearMiss(inv Invariant) {
	o.cov.NearMisses[inv]++
	if c := o.nmCounters[inv]; c != nil {
		c.Inc()
	}
}

// metricsInto double-writes the oracle's near-miss and violation counts
// into reg as they accumulate: sd_oracle_near_misses_total and
// sd_oracle_violations_total, labeled by invariant and shard="0".
// AttachOracle calls it for a metered scenario; repeated attachment to
// one registry aggregates (the counters are find-or-create).
func (o *Oracle) metricsInto(reg *obs.Registry) {
	for i := 0; i < numInvariants; i++ {
		inv := Invariant(i).String()
		o.nmCounters[i] = reg.Counter("sd_oracle_near_misses_total", "invariant", inv, "shard", "0")
		o.violCounters[i] = reg.Counter("sd_oracle_violations_total", "invariant", inv, "shard", "0")
	}
}

// CacheUpdated implements discovery.ConsistencyListener: the version-
// bound invariant, checked on every User cache write.
func (o *Oracle) CacheUpdated(t sim.Time, user, manager netsim.NodeID, version uint64) {
	if o.manager != netsim.NoNode && manager != o.manager {
		return
	}
	published := o.published
	if version > published {
		o.violate(InvVersionBound, user,
			"User caches version %d of Manager %d, but only %d was ever published",
			version, manager, published)
		return
	}
	o.cov.Slack[InvVersionBound][countBucket(published-version)]++
	if version == published && published > 1 {
		// A post-change write landing exactly at the bound: the closest
		// legal state to a fabrication, and the consistency event the
		// paper measures.
		o.nearMiss(InvVersionBound)
	}
}

// MessageSent implements netsim.Tracer.
func (o *Oracle) MessageSent(t sim.Time, m *netsim.Message) {
	if at, ok := o.retiredAt[m.From]; ok {
		if t > at+sim.Time(o.cfg.RetireGrace) {
			o.violate(InvRetiredSilence, m.From,
				"retired node transmits %s %.3fs after departure", m.Kind, (t - at).Sec())
		} else {
			// Every in-grace frame is the redundancy train running down;
			// the remaining grace is the margin.
			o.cov.Slack[InvRetiredSilence][slackBucket(o.cfg.RetireGrace-sim.Duration(t-at))]++
			o.nearMiss(InvRetiredSilence)
		}
	}
	p := &m.Packet
	switch p.Kind {
	case wire.Bye:
		if p.Role == wire.RoleRegistry {
			// An explicit retraction: the sender renounced the Central
			// role, so its claim leaves the ledger at the send instant.
			delete(o.claims, m.From)
		} else {
			// A departing tenant: the receiver evicts its leases on
			// delivery, so drop them from the ledger too.
			for key := range o.leases {
				if key.holder == m.To && key.renewer == m.From {
					delete(o.leases, key)
				}
			}
		}
	case wire.RenewAck:
		key := leaseKey{holder: m.From, renewer: m.To, manager: p.Manager}
		if expiry, ok := o.leases[key]; ok {
			if t > expiry {
				if late := sim.Duration(t - expiry); late > o.maxPurgeLate {
					o.maxPurgeLate = late
				}
			}
			if t > expiry+sim.Time(o.cfg.PurgeSlack) {
				o.violate(InvLeasePurge, m.From,
					"RenewAck to node %d for Manager %d a lease that expired %.3fs ago (never purged)",
					m.To, p.Manager, (t - expiry).Sec())
				delete(o.leases, key) // report each dead lease once
			} else {
				o.cov.Slack[InvLeasePurge][slackBucket(sim.Duration(expiry-t))]++
				if t > expiry {
					// Acknowledged inside PurgeSlack: legal only thanks
					// to the grace — the purge is losing the race.
					o.nearMiss(InvLeasePurge)
				}
			}
		}
	}
}

// MessageDelivered implements netsim.Tracer: Registry claims, lease
// creations and refreshes — all as a receiver observes them.
func (o *Oracle) MessageDelivered(t sim.Time, m *netsim.Message) {
	p := &m.Packet
	switch p.Kind {
	case wire.Announce:
		// A Registry claim counts as liveness only once somebody hears
		// it. Send-side accounting was drop-blind: a Central isolated by
		// a partition kept "renewing" its claim with frames that died on
		// the wire, masking no-Central windows in baseline runs.
		if p.Role == wire.RoleRegistry {
			o.claims[m.From] = t
			o.sawClaim = true
		}
	case wire.Register, wire.Subscribe:
		o.leases[leaseKey{holder: m.To, renewer: m.From, manager: p.Manager}] = t + sim.Time(p.Lease)
	case wire.Renew:
		key := leaseKey{holder: m.To, renewer: m.From, manager: p.Manager}
		// Refresh only a still-live lease: a renewal landing after the
		// expiry must be answered with RenewError, and leaving the stale
		// expiry in place is what lets the RenewAck check above fire.
		if expiry, ok := o.leases[key]; ok && t <= expiry+sim.Time(o.cfg.PurgeSlack) {
			o.leases[key] = t + sim.Time(p.Lease)
		}
	}
}

// MessageDropped implements netsim.Tracer.
func (o *Oracle) MessageDropped(t sim.Time, m *netsim.Message, reason string) {}

// NodeEvent implements netsim.Tracer: retirement and slot reuse.
func (o *Oracle) NodeEvent(t sim.Time, node netsim.NodeID, event string) {
	switch event {
	case "retired":
		o.retiredAt[node] = t
		delete(o.claims, node) // a departed Central's claim dies with it
	case "attached":
		delete(o.retiredAt, node)
	}
}

// probeCentral runs HealSlack after a partition heals: the set of nodes
// with a live Registry claim must be exactly one. A split brain is
// reported against the freshest live claimant, the lowest NodeID among
// equally fresh ones, so identical runs name the same node whatever
// order the claim map is walked in.
func (o *Oracle) probeCentral() {
	o.probesRun++
	now := o.k.Now()
	live := 0
	named := netsim.NoNode
	var freshest sim.Time
	for id, at := range o.claims {
		if now-at <= sim.Time(o.cfg.CentralWindow) {
			live++
			if live == 1 || at > freshest || at == freshest && id < named {
				named, freshest = id, at
			}
		}
	}
	if live == 1 {
		age := sim.Duration(now - freshest)
		o.cov.Slack[InvSingleCentral][slackBucket(o.cfg.CentralWindow-age)]++
		if 2*age > o.cfg.CentralWindow {
			// Converged, but the surviving claim is going stale: the
			// election is closer to "no Central" than the verdict shows.
			o.nearMiss(InvSingleCentral)
		}
	}
	switch {
	case live > 1:
		o.violate(InvSingleCentral, named,
			"%d simultaneous Central claims %.0fs after partition heal (split-brain persists)",
			live, o.cfg.HealSlack.Sec())
	case live == 0:
		o.violate(InvSingleCentral, netsim.NoNode,
			"no live Central claim %.0fs after partition heal (sawClaim=%v)",
			o.cfg.HealSlack.Sec(), o.sawClaim)
	}
}
