// Package upnp models the SSDP-based UPnP service discovery protocol as
// described by the paper and the NIST studies it reproduces: a pure
// peer-to-peer architecture with 2-party subscription over reliable
// unicast (TCP), multicast discovery (ssdp:alive announcements and
// M-SEARCH queries), and invalidation-based eventing — the Manager's
// NOTIFY tells subscribers that the service changed, and each User then
// fetches the new description with an HTTP GET.
//
// Recovery techniques (Table 2): SRC1/SRN1 via TCP, PR4 (the Manager asks
// purged Users to resubscribe), PR5 (Users rediscover the Manager through
// multicast queries or its periodic announcements).
package upnp

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// DiscoveryGroup is the SSDP multicast group all UPnP nodes join.
const DiscoveryGroup netsim.Group = 1

// The topics of DiscoveryGroup, SSDP's two multicast methods: who acts
// on which.
const (
	// TopicSearch carries M-SEARCH; Managers answer it.
	TopicSearch netsim.Topic = 1 + iota
	// TopicAlive carries the ssdp:alive announcement; Users listen for it.
	TopicAlive
)

// The §5 UPnP timing. The announcement train is core's
// UPnPAnnouncePeriod/UPnPAnnounceCopies ("the Manager sends 6 multicast
// announcement messages every 1800s") and the eventing lease is
// core.SubscriptionLease.
const (
	// cacheLease is how long a User keeps a discovered Manager without
	// hearing from it (the registration lease of §5 Step 4: 1800s).
	cacheLease = core.RegistrationLease
	// searchRetryPeriod is how often a User repeats M-SEARCH while its
	// required service is missing from the cache (PR5).
	searchRetryPeriod = 300 * sim.Second
	// getRetryPeriod is how often a User that knows it is stale (it
	// received an invalidation but the GET failed) retries the fetch.
	getRetryPeriod = 60 * sim.Second
)

// Config collects the model parameters a caller varies; DefaultConfig
// reproduces §5.
type Config struct {
	// PollPeriod enables CM2, pull-based consistency maintenance (§4.2):
	// when positive, the User re-fetches the cached description this
	// often, persistently, regardless of eventing. "Periodic queries from
	// the User eventually retrieve the updated service description."
	// Zero disables polling (the paper's notification-only experiments).
	PollPeriod sim.Duration
	// Techniques enables recovery techniques; ablations flip bits.
	Techniques core.TechniqueSet
	// Hardened turns the protocol-hardening layer on: the Manager's
	// subscription table is strict, a retiring User sends a Bye, and
	// every node runs the bounded TCP transport (netsim.TCPTransport).
	// False is the paper-faithful baseline.
	Hardened bool
}

// DefaultConfig returns the paper's UPnP parameters.
func DefaultConfig() Config {
	return Config{Techniques: core.UPnPTechniques()}
}
