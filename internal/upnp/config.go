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

// Config collects the model parameters; DefaultConfig reproduces §5.
type Config struct {
	// AnnouncePeriod and AnnounceCopies drive the Manager's ssdp:alive
	// train ("the Manager sends 6 multicast announcement messages every
	// 1800s").
	AnnouncePeriod sim.Duration
	AnnounceCopies int
	// CacheLease is how long a User keeps a discovered Manager without
	// hearing from it (the registration lease of §5 Step 4: 1800s).
	CacheLease sim.Duration
	// SubscriptionLease is the eventing lease (1800s).
	SubscriptionLease sim.Duration
	// SearchRetryPeriod is how often a User repeats M-SEARCH while its
	// required service is missing from the cache (PR5).
	SearchRetryPeriod sim.Duration
	// GetRetryPeriod is how often a User that knows it is stale (it
	// received an invalidation but the GET failed) retries the fetch.
	GetRetryPeriod sim.Duration
	// PollPeriod enables CM2, pull-based consistency maintenance (§4.2):
	// when positive, the User re-fetches the cached description this
	// often, persistently, regardless of eventing. "Periodic queries from
	// the User eventually retrieve the updated service description."
	// Zero disables polling (the paper's notification-only experiments).
	PollPeriod sim.Duration
	// TCP is the reliable transport's failure response.
	TCP netsim.TCPConfig
	// Techniques enables recovery techniques; ablations flip bits.
	Techniques core.TechniqueSet
	// Hardened turns the protocol-hardening layer on: the Manager's
	// subscription table is strict and a retiring User sends a Bye. The
	// experiment kit sets it together with the bounded TCP transport;
	// false is the paper-faithful baseline.
	Hardened bool
}

// DefaultConfig returns the paper's UPnP parameters.
func DefaultConfig() Config {
	return Config{
		AnnouncePeriod:    core.UPnPAnnouncePeriod,
		AnnounceCopies:    core.UPnPAnnounceCopies,
		CacheLease:        core.RegistrationLease,
		SubscriptionLease: core.SubscriptionLease,
		SearchRetryPeriod: 300 * sim.Second,
		GetRetryPeriod:    60 * sim.Second,
		TCP:               netsim.DefaultTCPConfig(),
		Techniques:        core.UPnPTechniques(),
	}
}
