package netsim

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Counters accounts for every wire transmission. The Update Efficiency
// metrics (§4.5) need the number of counted discovery-layer messages sent
// inside the consistency-recovery window [C, min(t_allConsistent, D)];
// everything else is kept for diagnostics and the Table 2 comparison.
//
// The counting convention, chosen to reproduce the paper's m' values at
// zero failure exactly (see DESIGN.md):
//   - every discovery-layer send attempt counts, including each redundant
//     multicast copy (one per wire transmission, not per group member);
//   - TCP control frames and retransmissions never count;
//   - protocols mark subscriber→notifier update acknowledgements as
//     uncounted (they play the role TCP ACKs play in Jini/UPnP, which the
//     paper also excludes);
//   - periodic lease renewals and their acknowledgements are uncounted:
//     they are steady-state upkeep that flows with or without the change,
//     not effort spent regaining consistency. Recovery messages that ride
//     the renewal exchange (RenewError, ResubscribeRequest, an SRN2
//     re-notification) do count.
type Counters struct {
	// Sends is every wire transmission attempted, any layer.
	Sends int
	// DiscoverySends is every discovery-layer send attempt (UDP frames and
	// first TCP data transmissions).
	DiscoverySends int
	// TransportFrames is TCP control frames plus TCP retransmissions.
	TransportFrames int
	// Delivered counts application payloads handed to endpoints.
	Delivered int
	// Drops counts frames lost to interface failure, random loss, or a
	// missing endpoint.
	Drops int

	// countedTimes records the timestamp of every counted discovery send,
	// in nondecreasing order (virtual time is monotonic).
	countedTimes []sim.Time

	// perKind tallies discovery sends by packet kind, and named those of
	// frames without a packet by name; PerKind reads both.
	perKind [wire.NumKinds]int
	named   map[string]int
}

// reset zeroes the counters while keeping slice and map capacity, for
// network reuse across simulations.
func (c *Counters) reset() {
	ct, named := c.countedTimes[:0], c.named
	*c = Counters{countedTimes: ct, named: named}
	clear(named)
}

// PerKind tallies discovery sends by message kind name, for diagnostics
// and the Table 2 breakdown: a fresh map holding every kind sent at least
// once.
func (c *Counters) PerKind() map[string]int {
	m := make(map[string]int, len(c.named))
	for k, n := range c.perKind {
		if n > 0 {
			m[wire.Kind(k).String()] = n
		}
	}
	for name, n := range c.named {
		m[name] += n
	}
	return m
}

func (c *Counters) recordSend(t sim.Time, m *Message) {
	c.Sends++
	if m.Transport == TCPControl || m.Retransmit {
		c.TransportFrames++
		return
	}
	c.DiscoverySends++
	if k := m.Packet.Kind; k != 0 {
		c.perKind[k]++
	} else {
		if c.named == nil {
			c.named = make(map[string]int)
		}
		c.named[m.Kind]++
	}
	if m.Counted {
		c.countedTimes = append(c.countedTimes, t)
	}
}

func (c *Counters) recordDelivery(m *Message) { c.Delivered++ }

func (c *Counters) recordDrop(m *Message) { c.Drops++ }

// CountedInWindow reports the number of counted discovery sends with
// from ≤ t ≤ to. This is the y of the Update Efficiency metrics when the
// window is the recovery interval.
func (c *Counters) CountedInWindow(from, to sim.Time) int {
	if to < from {
		return 0
	}
	lo := sort.Search(len(c.countedTimes), func(i int) bool { return c.countedTimes[i] >= from })
	hi := sort.Search(len(c.countedTimes), func(i int) bool { return c.countedTimes[i] > to })
	return hi - lo
}
