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

// Config collects the model parameters; DefaultConfig reproduces §5.
type Config struct {
	// AnnouncePeriod and AnnounceCopies drive the Central's multicast
	// announcement train ("the Registry sends 2 multicast announcements
	// every 1200s").
	AnnouncePeriod sim.Duration
	AnnounceCopies int
	// NodeAnnouncePeriod paces the presence announcements 3D/3C nodes
	// multicast until the Registry is discovered.
	NodeAnnouncePeriod sim.Duration
	// RegistrationLease, SubscriptionLease and CacheLease are the 1800s
	// leases of §5 Step 4.
	RegistrationLease sim.Duration
	SubscriptionLease sim.Duration
	CacheLease        sim.Duration
	// CentralTimeout is how long a node keeps believing in a silent
	// Central. It exceeds BackupTimeout so the Backup takes over before
	// the population purges the Central.
	CentralTimeout sim.Duration
	// BackupTimeout is how long the Backup waits for Central
	// announcements before taking over.
	BackupTimeout sim.Duration
	// ElectionWindow is how long a 300D candidate collects competing
	// candidacies before declaring itself Central.
	ElectionWindow sim.Duration
	// ElectionRetry restarts a stalled election (the expected winner
	// never announced).
	ElectionRetry sim.Duration
	// SearchRetryPeriod is how often a User with an unmet requirement
	// repeats its search (unicast to the Central, multicast when the
	// Central is not responding — PR5).
	SearchRetryPeriod sim.Duration
	// SearchBurst bounds how many searches a purge event triggers.
	// Resource-aware devices do not poll forever: after the burst the
	// User waits passively for the Registry's notification of the
	// re-registered service (PR1) or for a Central change. This is the
	// "weaker recovery with PR5" of §6.2: "Users depend on the Registry".
	SearchBurst int
	// NotifyRetry is the SRN1 schedule for update notifications;
	// ControlRetry covers registrations and subscriptions.
	NotifyRetry  core.RetryPolicy
	ControlRetry core.RetryPolicy
	// PollPeriod enables CM2, pull-based consistency maintenance (§4.2):
	// when positive, the User periodically requests the current
	// description of every cached service from its lessee (or the
	// Central), persistently. Zero disables polling.
	PollPeriod sim.Duration
	// CriticalUpdates switches the critical-update scenario on: SRC1
	// (unlimited retransmission) replaces SRN1, updates carry sequence
	// numbers, receivers monitor gaps (SRC2), and the Manager keeps the
	// update history until all interested Users confirmed it.
	CriticalUpdates bool
	// Techniques enables recovery techniques; ablations flip bits.
	Techniques core.TechniqueSet
	// Hardened turns the protocol-hardening layer on: strict holder
	// lease tables, Central claim retraction and liveness repair, and
	// retire-time Bye frames. The experiment kit sets it together with
	// the retry caps; false is the paper-faithful baseline.
	Hardened bool
}

// DefaultConfig returns the paper's FRODO parameters for 3-party
// subscription topologies.
func DefaultConfig() Config {
	return Config{
		AnnouncePeriod:     core.FrodoAnnouncePeriod,
		AnnounceCopies:     core.FrodoAnnounceCopies,
		NodeAnnouncePeriod: 1200 * sim.Second,
		RegistrationLease:  core.RegistrationLease,
		SubscriptionLease:  core.SubscriptionLease,
		CacheLease:         core.RegistrationLease,
		CentralTimeout:     3000 * sim.Second,
		BackupTimeout:      2460 * sim.Second,
		ElectionWindow:     5 * sim.Second,
		ElectionRetry:      15 * sim.Second,
		SearchRetryPeriod:  1200 * sim.Second,
		SearchBurst:        3,
		NotifyRetry:        core.FrodoNotifyRetry,
		ControlRetry:       core.FrodoControlRetry,
		Techniques:         core.FrodoThreePartyTechniques(),
	}
}

// TwoPartyConfig returns the configuration for the 2-party subscription
// topology (300D Managers).
func TwoPartyConfig() Config {
	cfg := DefaultConfig()
	cfg.Techniques = core.FrodoTwoPartyTechniques()
	return cfg
}
