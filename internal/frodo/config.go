// Package frodo implements the paper's own service discovery protocol.
//
// FRODO targets the home environment with two goals (§3):
// resource-awareness, served by a device class hierarchy — 3C (Cent)
// devices are Managers only, 3D (Dollar) devices are resource-lean
// Managers and Users, 300D (300 Dollar) devices additionally carry
// Registry capability — and robustness, served by electing the most
// powerful 300D node as the Central (the Registry), appointing a Backup
// that takes over on Central failure, and avoiding any dependence on
// transport-layer recovery: all traffic is UDP with selective
// acknowledgements and retransmissions.
//
// Subscriptions are 3-party for 3C/3D Managers (the Central maintains the
// subscriptions and propagates updates) and 2-party for 300D Managers
// (Users subscribe at the Manager directly). FRODO is the only protocol
// in the study implementing SRN2: a Manager that failed to notify a User
// caches that fact and retries when the User's subscription renewal
// arrives.
package frodo

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// DiscoveryGroup is the multicast group all FRODO nodes join.
const DiscoveryGroup netsim.Group = 1

// The topics of DiscoveryGroup: who acts on which multicast kind
// (Node.topics declares them per device). The Central's Registry
// Announce and its hardened Bye are unscoped — every node tracks the
// Central.
const (
	// TopicSearch carries a multicast Search (PR5a); nodes with a Manager
	// role answer it.
	TopicSearch netsim.Topic = 1 + iota
	// TopicElection carries ElectionAnnounce candidacies; 300D nodes run
	// the election and pick the Backup from them.
	TopicElection
	// TopicPresence carries the 3C/3D presence Announce, which the
	// Central — a 300D node — answers with unicast Registry info.
	TopicPresence
)

// Class is the FRODO device class (§3).
type Class uint8

const (
	// Class3C devices are simple, resource-restricted Managers.
	Class3C Class = iota
	// Class3D devices can be Managers and Users with limited behaviour.
	Class3D
	// Class300D devices can additionally become the Central or Backup.
	Class300D
)

func (c Class) String() string {
	switch c {
	case Class3C:
		return "3C"
	case Class3D:
		return "3D"
	case Class300D:
		return "300D"
	default:
		return "?"
	}
}

// ClassAttr is the well-known service attribute carrying the Manager's
// device class through registry records, so a User can "detect which
// subscription process to use, based on the device class of the Manager"
// (§4.2).
const ClassAttr = "__frodo_class"

// The §5 FRODO timing that no configuration varies. The Central's
// announcement copies are core.FrodoAnnounceCopies, and the registration
// and subscription leases are the 1800s leases of §5 Step 4
// (core.RegistrationLease, core.SubscriptionLease).
const (
	// cacheLease is how long a User keeps a cached service without a
	// renewal (1800s); the Central's announcement advertises it.
	cacheLease = core.RegistrationLease
	// CentralTimeout is how long a node keeps believing in a silent
	// Central. It exceeds backupTimeout so the Backup takes over before
	// the population purges the Central.
	CentralTimeout = 3000 * sim.Second
	// backupTimeout is how long the Backup waits for Central
	// announcements before taking over.
	backupTimeout = 2460 * sim.Second
	// nodeAnnouncePeriod paces the presence announcements 3D/3C nodes
	// multicast until the Registry is discovered.
	nodeAnnouncePeriod = 1200 * sim.Second
	// electionWindow is how long a 300D candidate collects competing
	// candidacies before declaring itself Central.
	electionWindow = 5 * sim.Second
	// electionRetry restarts a stalled election (the expected winner
	// never announced).
	electionRetry = 15 * sim.Second
	// searchRetryPeriod is how often a User with an unmet requirement
	// repeats its search (unicast to the Central, multicast when the
	// Central is not responding — PR5).
	searchRetryPeriod = 1200 * sim.Second
	// searchBurst bounds how many searches a purge event triggers.
	// Resource-aware devices do not poll forever: after the burst the
	// User waits passively for the Registry's notification of the
	// re-registered service (PR1) or for a Central change. This is the
	// "weaker recovery with PR5" of §6.2: "Users depend on the Registry".
	searchBurst = 3
)

// Config collects the model parameters a caller varies; DefaultConfig
// reproduces §5.
type Config struct {
	// AnnouncePeriod paces the Central's multicast announcement train
	// ("the Registry sends 2 multicast announcements every 1200s").
	AnnouncePeriod sim.Duration
	// PollPeriod enables CM2, pull-based consistency maintenance (§4.2):
	// when positive, the User periodically requests the current
	// description of every cached service from its lessee (or the
	// Central), persistently. Zero disables polling.
	PollPeriod sim.Duration
	// CriticalUpdates switches the critical-update scenario on: SRC1
	// (unlimited retransmission) replaces SRN1, updates carry sequence
	// numbers, and receivers monitor gaps (SRC2). A gap request is
	// answered with the current record, which carries the full
	// description, so the Manager keeps no update history.
	CriticalUpdates bool
	// Techniques enables recovery techniques; ablations flip bits.
	Techniques core.TechniqueSet
	// Hardened turns the protocol-hardening layer on: strict holder
	// lease tables, Central claim retraction and liveness repair,
	// retire-time Bye frames, and capped jittered retry schedules
	// (core.HardenedRetryCap). False is the paper-faithful baseline.
	Hardened bool
}

// DefaultConfig returns the paper's FRODO parameters for 3-party
// subscription topologies.
func DefaultConfig() Config {
	return Config{
		AnnouncePeriod: core.FrodoAnnouncePeriod,
		Techniques:     core.FrodoThreePartyTechniques(),
	}
}

// notifyRetry is the schedule for update notifications: SRC1's unlimited
// one in critical-update mode, else SRN1's.
func (cfg Config) notifyRetry() core.RetryPolicy {
	if cfg.CriticalUpdates {
		return core.FrodoCriticalRetry
	}
	return cfg.harden(core.FrodoNotifyRetry)
}

// controlRetry is the schedule for registrations and subscriptions.
func (cfg Config) controlRetry() core.RetryPolicy { return cfg.harden(core.FrodoControlRetry) }

// harden caps a hardened node's retry schedule with decorrelated jitter;
// the baseline keeps the paper's periodic one.
func (cfg Config) harden(p core.RetryPolicy) core.RetryPolicy {
	if cfg.Hardened {
		p.Cap = core.HardenedRetryCap
	}
	return p
}

// TwoPartyConfig returns the configuration for the 2-party subscription
// topology (300D Managers).
func TwoPartyConfig() Config {
	cfg := DefaultConfig()
	cfg.Techniques = core.FrodoTwoPartyTechniques()
	return cfg
}
