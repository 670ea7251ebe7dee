package core

import "repro/internal/sim"

// The experiment constants shared by all three protocol models (§5).
const (
	// RegistrationLease is "the registration lease period for a discovered
	// service to remain valid in the cache of the Registry or User ...
	// 1800s for all three protocols".
	RegistrationLease = 1800 * sim.Second

	// SubscriptionLease is the 1800s subscription lease used by all
	// systems.
	SubscriptionLease = 1800 * sim.Second

	// RenewFraction is when a lease holder renews, as a fraction of the
	// lease period — identical across systems so the choice cannot bias
	// the comparison. Renewals happen near the lease end (90%), matching
	// the paper's observation that SRN2's "longer delay in update
	// notification [comes from] the dependency on the subscription lease
	// period": renewal-driven repairs are lease-period-grained. A lost
	// renewal leads to a purge and a PR3/PR4 recovery, which is exactly
	// the purge-rediscovery regime the paper describes at higher failure
	// rates.
	RenewFraction = 0.9

	// RunDuration is the simulation length (§5 Step 5).
	RunDuration = 5400 * sim.Second
)

// RenewInterval derives the periodic renewal interval for a lease.
func RenewInterval(lease sim.Duration) sim.Duration {
	return sim.Duration(RenewFraction * float64(lease))
}

// Announcement trains (§5 Step 4).
const (
	UPnPAnnouncePeriod = 1800 * sim.Second
	UPnPAnnounceCopies = 6

	JiniAnnouncePeriod = 120 * sim.Second
	JiniAnnounceCopies = 6

	FrodoAnnouncePeriod = 1200 * sim.Second
	FrodoAnnounceCopies = 2
)

// FRODO's selective retransmission parameters ("we deliberately model
// FRODO parameters to reflect resource-awareness by not requiring all
// messages to be retransmitted and acknowledged (only a selected few)").
// The paper does not publish the schedule; 3 transmissions 10s apart is
// resource-lean while still riding out sub-30s glitches.
var (
	// FrodoNotifyRetry backs SRN1 for ServiceUpdate notifications.
	FrodoNotifyRetry = RetryPolicy{Interval: 10 * sim.Second, Limit: 3}
	// FrodoControlRetry backs registration and subscription requests.
	FrodoControlRetry = RetryPolicy{Interval: 10 * sim.Second, Limit: 3}
	// FrodoCriticalRetry is the unlimited SRC1 schedule used in
	// critical-update mode.
	FrodoCriticalRetry = RetryPolicy{Interval: 10 * sim.Second, Limit: 0}
)
