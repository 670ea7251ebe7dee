// Package netsim simulates the local area network underneath the service
// discovery protocols: nodes with independently failing transmitter and
// receiver interfaces, unreliable UDP unicast and multicast, and the
// paper's two-phase TCP abstraction (Table 3). It also carries the
// message-accounting machinery behind the Update Efficiency metrics.
package netsim

import "repro/internal/wire"

// NodeID identifies a node on the simulated LAN: its index in the
// network's node table.
type NodeID = wire.NodeID

// NoNode is the NodeID used where a sender or receiver is absent.
const NoNode = wire.NoNode

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

// Message is a frame in flight. Protocols fill Packet and Counted; the
// network fills the rest. A Message is pooled: it and Conn are valid only
// during the Deliver or Tracer call that hands them out, while the Packet
// is a value and may be copied out and kept. The one-byte fields come
// last so they share a word: every frame copies a Message, and it fits
// two cache lines (TestFrameStructSizes).
type Message struct {
	From NodeID
	To   NodeID // receiver; for multicast, the member this copy goes to
	// Kind names the frame for traces and per-kind counters: its
	// packet's Kind, or the raw name of a frame without one.
	Kind   string
	Packet wire.Packet
	// Conn is the TCP connection a TCPData frame arrived on, letting the
	// receiver answer over the same connection (HTTP responses, Jini
	// acknowledgements). Nil for UDP traffic.
	Conn *TCPConn
	// Counted marks a discovery-layer send that contributes to the update
	// effort y of the Update Efficiency metrics. See counters.go for the
	// convention that reproduces the paper's m' values.
	Counted   bool
	Multicast bool
	Topic     Topic // multicast only: the scope the frame was sent under
	Transport Transport
	// Retransmit marks a transport-level retransmission of an earlier
	// TCPData frame; retransmissions never count as discovery sends.
	Retransmit bool
}

// Outgoing is what a protocol hands to the network to transmit: a packet,
// copied into every frame that carries it.
type Outgoing struct {
	Packet wire.Packet
	// Kind names a frame that carries no packet (a zero Packet.Kind);
	// a packet names its frame itself.
	Kind    string
	Counted bool
	// Topic scopes a multicast to the members listening for it; zero
	// reaches the whole group. Unicast ignores it.
	Topic Topic
}

// frame builds the Message that carries out over tr.
func (out *Outgoing) frame(from, to NodeID, tr Transport) Message {
	kind := out.Kind
	if out.Packet.Kind != 0 {
		kind = out.Packet.Kind.String()
	}
	return Message{From: from, To: to, Kind: kind, Packet: out.Packet, Counted: out.Counted,
		Transport: tr}
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
