package wire

import "repro/internal/sim"

// NodeID identifies a node on the simulated LAN: its index in the
// network's node table.
type NodeID int

// NoNode is the NodeID used where a sender, receiver or Manager is absent.
const NoNode NodeID = -1

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

// Kind tags a Packet with its message type. Every protocol composes its
// traffic from these kinds; each one's comment names the Packet fields it
// uses (sender and receiver live on the netsim.Message envelope). The
// zero Kind marks a frame that carries no packet.
type Kind uint8

const (
	_ Kind = iota
	// Announce advertises presence: a Registry's periodic multicast, a
	// UPnP Manager's ssdp:alive train, or a FRODO node searching for the
	// Central. Role; N is FRODO's election power; Lease is how long
	// receivers may cache the announcing entity (UPnP CACHE-CONTROL, the
	// registration lease for registries).
	Announce
	// Search asks for services matching Q; multicast in UPnP and FRODO's
	// fallback, unicast to a Registry in Jini and FRODO.
	Search
	// SearchReply returns the matching records (see Records).
	SearchReply
	// Register stores or refreshes a Manager's record at a Registry for
	// Lease.
	Register
	// RegisterAck confirms a registration.
	RegisterAck
	// Subscribe asks for update notifications about Manager's service
	// for Lease, from the Registry (3-party) or the Manager itself
	// (2-party). Jini's request for notification of future registrations
	// is a Subscribe with Manager == NoNode and Q the requirement.
	Subscribe
	// SubscribeAck confirms a subscription. Manager echoes the request;
	// SD carries the current service state when the protocol delivers
	// it on subscription (UPnP eventing, FRODO resubscription): that is
	// how PR3/PR4 recoveries restore consistency. Jini leaves SD nil —
	// hence PR2.
	SubscribeAck
	// Renew refreshes Manager's subscription or registration lease for
	// Lease (SubscriptionRenew in Fig. 1); Manager == NoNode renews a
	// User's standing notification request.
	Renew
	// RenewAck confirms a renewal about Manager.
	RenewAck
	// RenewError rejects a renewal about Manager for an unknown lease:
	// Jini's PR3 ("purged Users are simply returned with an error message
	// from the Registry").
	RenewError
	// Update propagates a changed record (ServiceUpdate in Fig. 1). N is
	// the sequence number SRC2 monitors. ForRegistry routes it at FRODO
	// nodes that can hold both a Registry and a subscriber role (300D):
	// true means "store this in your repository", false "this is your
	// subscribed copy".
	Update
	// UpdateAck acknowledges version N of Manager's service. Role tells a
	// Registry's ack to the Manager (counted effort) from a subscriber's
	// receipt (uncounted, the UDP analogue of a TCP ACK).
	UpdateAck
	// Invalidate is UPnP's eventing NOTIFY: Manager's service changed to
	// version N, without the data; the User fetches it with Get.
	Invalidate
	// Get requests Manager's current description (UPnP HTTP GET; FRODO
	// SRC2 update request).
	Get
	// GetReply returns the current record.
	GetReply
	// ResubscribeRequest asks a formerly subscribed User to subscribe to
	// Manager again: FRODO's PR3 (from the Registry) and PR4 (from a 300D
	// Manager), and UPnP's PR4.
	ResubscribeRequest
	// ManagerGone tells a User that the Registry purged Manager,
	// triggering FRODO's PR5.
	ManagerGone
	// Bye is a best-effort goodbye, only emitted by hardened nodes: a
	// retiring node deregisters itself, and a demoted FRODO Central
	// retracts its Announce claim (Role == RoleRegistry). Receivers handle
	// Bye unconditionally — baseline runs never send one.
	Bye
	// ElectionAnnounce is a 300D node's candidacy in FRODO's Central
	// election, with power N: the most powerful candidate (ties broken
	// by node ID) wins.
	ElectionAnnounce
	// AppointBackup makes the receiver FRODO's Backup and syncs the
	// Central's registrations, Recs, to it.
	AppointBackup
)

// kindNames are the wire-log names: traces, per-kind counters and
// telemetry labels read them.
var kindNames = [...]string{
	Announce:           "Announce",
	Search:             "ServiceSearch",
	SearchReply:        "ServiceFound",
	Register:           "ServiceRegistration",
	RegisterAck:        "RegistrationAck",
	Subscribe:          "SubscriptionRequest",
	SubscribeAck:       "SubscriptionAck",
	Renew:              "SubscriptionRenew",
	RenewAck:           "RenewAck",
	RenewError:         "RenewError",
	Update:             "ServiceUpdate",
	UpdateAck:          "UpdateAck",
	Invalidate:         "Invalidate",
	Get:                "Get",
	GetReply:           "GetReply",
	ResubscribeRequest: "ResubscribeRequest",
	ManagerGone:        "ManagerGone",
	Bye:                "Bye",
	ElectionAnnounce:   "ElectionAnnounce",
	AppointBackup:      "AppointBackup",
}

// String returns the kind's wire-log name, "Unknown" for the zero Kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Unknown"
}

// Packet is one message of the vocabulary, carried by value inline in
// netsim's Message and Outgoing: a Kind tag plus the union of the kinds'
// fields, shared where kinds never need two at once. A packet holds no
// state of its sender's, so a send never needs a cached copy and a new
// send can never leak an old one's content; the slice and the snapshot
// it may point to are immutable once sent.
type Packet struct {
	Kind        Kind
	Role        Role
	ForRegistry bool
	// Manager is the Manager the packet is about; with SD it forms the
	// record the packet carries (Record).
	Manager NodeID
	SD      *Snapshot
	// Recs is a SearchReply's or AppointBackup's record list, never nil
	// when it is sent as a list: a SearchReply with Recs nil carries its
	// one record inline in Manager and SD.
	Recs []ServiceRecord
	// Q is a Search's query or a Subscribe's requirement.
	Q *Query
	// Lease is a lease or cache duration.
	Lease sim.Duration
	// N is an Update's sequence number, an UpdateAck's or Invalidate's
	// version, and an Announce's or ElectionAnnounce's power.
	N uint64
}

// Record returns the record the packet carries inline.
func (p *Packet) Record() ServiceRecord { return ServiceRecord{Manager: p.Manager, SD: p.SD} }

// Records returns a SearchReply's records: Recs, or the one inline record
// when Recs is nil.
func (p *Packet) Records() []ServiceRecord {
	if p.Recs != nil {
		return p.Recs
	}
	return []ServiceRecord{p.Record()}
}
