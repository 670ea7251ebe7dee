// Package jini models the Jini lookup architecture as the paper and the
// NIST studies describe it: a registry-based system with 3-party
// subscription over reliable unicast (TCP). Managers register their
// services at every lookup service (Registry) they discover; Users
// register interest in future service registrations (PR1, with Jini's
// documented anomaly: only *future* registrations are notified), always
// query right afterwards to pick up existing registrations (PR2), and
// subscribe for remote events carrying changed service descriptions.
// A Registry answers a renewal for a purged lease with a bare error,
// forcing the User to redo the whole join sequence (PR3).
//
// Topologies with one and two Registries reproduce the paper's "Jini with
// 1 Registry" and "Jini with 2 Registries" systems.
package jini

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// DiscoveryGroup is the multicast group used for Registry announcements.
const DiscoveryGroup netsim.Group = 1

// TopicAnnounce is DiscoveryGroup's one topic, the Registry announcement:
// Users and Managers listen for it. Registries are members of the group
// and listen to nothing — a lookup service does not act on another's
// announcement.
const TopicAnnounce netsim.Topic = 1

// cacheLease is how long a node keeps a discovered Registry, and a User
// a cached service, without a refresh (1800s). The rest of the §5 Jini
// timing is core's: each Registry's announcement train ("the Registry
// sends 6 multicast announcements messages every 120s") is
// JiniAnnouncePeriod/JiniAnnounceCopies, subscriptions and notification
// requests hold core.SubscriptionLease, and the Manager's service
// registration core.RegistrationLease.
const cacheLease = core.RegistrationLease

// Config collects the model parameters a caller varies; DefaultConfig
// reproduces §5.
type Config struct {
	// PollPeriod enables CM2, pull-based consistency maintenance (§4.2):
	// when positive, the User re-queries every known Registry this often,
	// persistently. Zero disables polling.
	PollPeriod sim.Duration
	// Techniques enables recovery techniques; ablations flip bits.
	Techniques core.TechniqueSet
	// Hardened turns the protocol-hardening layer on: the Registry's
	// lease tables are strict, it refuses silent repository heals, a
	// retiring User sends a Bye, and every node runs the bounded TCP
	// transport (netsim.TCPTransport). False is the paper-faithful
	// baseline.
	Hardened bool
}

// DefaultConfig returns the paper's Jini parameters.
func DefaultConfig() Config {
	return Config{Techniques: core.JiniTechniques()}
}
