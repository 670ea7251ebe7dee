// Package netsim simulates the local area network underneath the service
// discovery protocols: nodes with independently failing transmitter and
// receiver interfaces, unreliable UDP unicast and multicast, and the
// paper's two-phase TCP abstraction (Table 3). It also carries the
// message-accounting machinery behind the Update Efficiency metrics.
package netsim

import "repro/internal/sim"

// NodeID identifies a node on the simulated LAN: its index in the
// network's node table.
type NodeID int

// NoNode is the zero NodeID, used where a sender or receiver is absent.
const NoNode NodeID = -1

// Group identifies a multicast group.
type Group int

// Topic scopes a multicast frame within its group: the frame reaches only
// the members whose endpoint declared the topic when it joined
// (Network.JoinTopics). The zero Topic is unscoped and reaches every
// member, so protocols that never name a topic behave as before. Topic
// ids are small (below MaxTopics) and private to a protocol, declared
// next to its discovery group.
type Topic uint8

// MaxTopics bounds topic ids: a TopicSet is one word.
const MaxTopics = 32

// TopicSet is the set of topics a group member listens for. Every set
// contains the unscoped Topic 0.
type TopicSet uint32

// AllTopics is what a plain Join declares: the endpoint handles (or
// harmlessly ignores) whatever the group carries.
const AllTopics = ^TopicSet(0)

// Topics builds the set holding the given topics; Topics() is a member
// that hears unscoped frames only.
func Topics(ts ...Topic) TopicSet {
	set := Topic(0).bit()
	for _, t := range ts {
		set |= t.bit()
	}
	return set
}

// Has reports whether the set holds the topic.
func (s TopicSet) Has(t Topic) bool { return s&t.bit() != 0 }

func (t Topic) bit() TopicSet {
	if t >= MaxTopics {
		panic("netsim: topic id out of range")
	}
	return 1 << t
}

// Transport classifies a frame for the accounting rules of §4.5: Update
// Efficiency counts discovery-layer messages only, never transport frames
// ("the Efficiency Degradation metric ... do[es] not take into account the
// messages used by the transmission layers").
type Transport uint8

const (
	// UDP is an unreliable datagram; one frame per discovery message.
	UDP Transport = iota
	// TCPData is the frame carrying a discovery message over a TCP
	// connection. The first transmission represents the discovery-layer
	// send; retransmissions are transport frames.
	TCPData
	// TCPControl is a connection setup or acknowledgement frame.
	TCPControl
)

func (tr Transport) String() string {
	switch tr {
	case UDP:
		return "udp"
	case TCPData:
		return "tcp"
	case TCPControl:
		return "tcp-ctl"
	default:
		return "unknown"
	}
}

// Message is a frame in flight. Protocols fill Kind, Counted and Payload;
// the network fills the rest.
type Message struct {
	From      NodeID
	To        NodeID // receiver; for multicast, the member this copy goes to
	Multicast bool
	Topic     Topic  // multicast only: the scope the frame was sent under
	Kind      string // human-readable type, e.g. "ServiceUpdate"
	// Counted marks a discovery-layer send that contributes to the update
	// effort y of the Update Efficiency metrics. See counters.go for the
	// convention that reproduces the paper's m' values.
	Counted   bool
	Payload   any
	Transport Transport
	// Retransmit marks a transport-level retransmission of an earlier
	// TCPData frame; retransmissions never count as discovery sends.
	Retransmit bool
	SentAt     sim.Time
	// Conn is the TCP connection a TCPData payload arrived on, letting the
	// receiver answer over the same connection (HTTP responses, Jini
	// acknowledgements). Nil for UDP traffic. Connections are pooled, so
	// like the Message itself Conn is valid only during Deliver.
	Conn *TCPConn
}

// Outgoing is what a protocol hands to the network to transmit.
type Outgoing struct {
	Kind    string
	Counted bool
	// Topic scopes a multicast to the members listening for it; zero
	// reaches the whole group. Unicast ignores it.
	Topic   Topic
	Payload any
}

// Endpoint is the protocol-side receiver attached to a node.
type Endpoint interface {
	// Deliver hands a successfully received message to the protocol.
	Deliver(m *Message)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(m *Message)

// Deliver implements Endpoint.
func (f EndpointFunc) Deliver(m *Message) { f(m) }
