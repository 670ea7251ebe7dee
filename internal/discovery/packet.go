package discovery

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Role identifies the discovery-layer role a node speaks with. The sender
// role matters for message accounting: a subscriber's update
// acknowledgement is excluded from the update-effort count (see
// netsim.Counters).
type Role uint8

const (
	RoleUser Role = iota
	RoleManager
	RoleRegistry
	RoleBackup
)

func (r Role) String() string {
	switch r {
	case RoleUser:
		return "User"
	case RoleManager:
		return "Manager"
	case RoleRegistry:
		return "Registry"
	case RoleBackup:
		return "Backup"
	default:
		return "?"
	}
}

// The shared payload vocabulary. Every protocol composes its traffic from
// these types (FRODO adds its election family in package frodo); the
// structs carry only protocol content — sender and receiver live on the
// netsim.Message envelope.

// Announce advertises presence: a Registry's periodic multicast, a UPnP
// Manager's ssdp:alive train, or a FRODO node announcing itself while
// searching for the Central.
type Announce struct {
	Role Role
	// Power is FRODO's device capability used by the Central election;
	// zero elsewhere.
	Power int
	// CacheLease is how long receivers may keep the announcing entity in
	// their caches before purging it (UPnP CACHE-CONTROL; registration
	// lease for registries).
	CacheLease sim.Duration
}

// Search asks for services matching a query; multicast in UPnP/FRODO
// fallback, unicast to a Registry in Jini and FRODO.
type Search struct {
	Q Query
}

// SearchReply returns the matching records.
type SearchReply struct {
	Recs []ServiceRecord
}

// Register stores (or refreshes) a Manager's service at a Registry.
type Register struct {
	Rec   ServiceRecord
	Lease sim.Duration
}

// RegisterAck confirms a registration.
type RegisterAck struct{}

// Subscribe asks to receive update notifications for a Manager's service,
// from the Registry (3-party) or the Manager itself (2-party). Jini's
// request for notification of future service registrations is a Subscribe
// with Manager == netsim.NoNode and Q set to the User's requirements.
type Subscribe struct {
	Manager netsim.NodeID
	Q       *Query
	Lease   sim.Duration
}

// SubscribeAck confirms a subscription. Manager echoes the request's
// Manager field (NoNode for a Jini notification request) so the
// subscriber can correlate. Rec carries the current service state when
// the protocol delivers initial state on subscription (UPnP eventing,
// FRODO resubscription): that is how PR3/PR4 recoveries restore
// consistency. Jini leaves Rec.SD nil — hence PR2.
type SubscribeAck struct {
	Manager netsim.NodeID
	Rec     ServiceRecord
}

// Renew refreshes a subscription lease (SubscriptionRenew in Fig. 1).
type Renew struct {
	Manager netsim.NodeID
	Lease   sim.Duration
}

// RenewAck confirms a renewal.
type RenewAck struct {
	Manager netsim.NodeID
}

// RenewError rejects a renewal for an unknown subscription: Jini's PR3
// ("purged Users are simply returned with an error message from the
// Registry").
type RenewError struct {
	Manager netsim.NodeID
}

// Update propagates a changed service description (ServiceUpdate in
// Fig. 1). Jini and FRODO carry the updated data; Seq supports SRC2
// monitoring. ForRegistry routes the message at nodes that can hold both
// a Registry and a subscriber role (FRODO 300D): true means "store this
// in your repository", false means "this is your subscribed copy".
type Update struct {
	Rec         ServiceRecord
	Seq         uint64
	ForRegistry bool
}

// UpdateAck acknowledges an Update. SenderRole distinguishes a Registry's
// ack to the Manager (counted effort) from a subscriber's receipt
// (uncounted, the UDP analogue of a TCP ACK).
type UpdateAck struct {
	Manager    netsim.NodeID
	Version    uint64
	SenderRole Role
}

// Invalidate is UPnP's eventing NOTIFY: it announces that the service
// changed without carrying the data; the User must fetch the new
// description with Get.
type Invalidate struct {
	Manager netsim.NodeID
	Version uint64
}

// Get requests the current service description (UPnP HTTP GET; FRODO
// SRC2 update request).
type Get struct {
	Manager netsim.NodeID
}

// GetReply returns the current description.
type GetReply struct {
	Rec ServiceRecord
}

// ResubscribeRequest asks a formerly-subscribed User to subscribe again:
// FRODO's PR3 (from the Registry) and PR4 (from a 300D Manager), and
// UPnP's PR4.
type ResubscribeRequest struct {
	Manager netsim.NodeID
}

// ManagerGone tells a User that the Registry purged a Manager, triggering
// FRODO's PR5 ("Users purge the subscription when the Registry purges the
// Manager").
type ManagerGone struct {
	Manager netsim.NodeID
}

// Bye is a best-effort goodbye, only emitted by hardened nodes: a retiring
// node deregisters itself (peers evict its leases immediately instead of
// waiting for expiry), and a demoted FRODO Central retracts its Announce
// claim (Role == RoleRegistry). Receivers handle Bye unconditionally —
// baseline runs never send one, so the baseline wire trace is unchanged.
type Bye struct {
	Role Role
}

// Kind returns the wire-log name for a payload; protocols pass it as
// netsim.Outgoing.Kind so traces and per-kind counters read naturally.
func Kind(p any) string {
	switch p.(type) {
	case Announce, *Announce:
		return "Announce"
	case Search, *Search:
		return "ServiceSearch"
	case SearchReply, *SearchReply:
		return "ServiceFound"
	case Register, *Register:
		return "ServiceRegistration"
	case RegisterAck, *RegisterAck:
		return "RegistrationAck"
	case Subscribe, *Subscribe:
		return "SubscriptionRequest"
	case SubscribeAck, *SubscribeAck:
		return "SubscriptionAck"
	case Renew, *Renew:
		return "SubscriptionRenew"
	case RenewAck, *RenewAck:
		return "RenewAck"
	case RenewError, *RenewError:
		return "RenewError"
	case Update, *Update:
		return "ServiceUpdate"
	case UpdateAck, *UpdateAck:
		return "UpdateAck"
	case Invalidate, *Invalidate:
		return "Invalidate"
	case Get, *Get:
		return "Get"
	case GetReply, *GetReply:
		return "GetReply"
	case ResubscribeRequest, *ResubscribeRequest:
		return "ResubscribeRequest"
	case ManagerGone, *ManagerGone:
		return "ManagerGone"
	case Bye, *Bye:
		return "Bye"
	default:
		return "Unknown"
	}
}
