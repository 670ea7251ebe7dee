package netsim

import (
	"testing"

	"repro/internal/sim"
)

// CheckPoolsDrained runs the network's kernel dry and fails t for every
// pooled record still out: once the traffic has settled, each pool must
// hold every record it made. It backs the zero-alloc gates, which cannot
// see a leak themselves — testing.AllocsPerRun truncates, and a pool
// that grows by chunks and leaks one record per run reads 0 there.
func CheckPoolsDrained(t *testing.T, nw *Network) {
	t.Helper()
	drain(nw.k)
	for name, n := range recordsInUse(t, nw) {
		if n != 0 {
			t.Errorf("%d %s records still out with the kernel drained", n, name)
		}
	}
}

// everyoneListens is the fan-out as it was before topics, kept as a
// test-only reference: every member of every group is handed every frame,
// whatever it declared. It rides as the network's tracer — MessageSent
// runs before a copy's fan-out reads the declarations, so widening them
// there also catches members that joined mid-run — and passes on to the
// handled tracer what a scoped network would have shown it: everything
// except the deliveries and drops of frames whose receiver declined the
// topic.
type everyoneListens struct {
	nw       *Network
	handled  Tracer
	declined map[NodeID]TopicSet // what each widened member had declared
	withheld int                 // deliveries and drops not passed on
}

// ListenToEverything turns nw into the everyone-listens reference and
// returns the tracer to install on it. (A member that joins between two
// multicast sends is scoped until the second.)
func ListenToEverything(nw *Network, handled Tracer) Tracer {
	r := &everyoneListens{nw: nw, handled: handled, declined: make(map[NodeID]TopicSet)}
	r.widen()
	return r
}

func (r *everyoneListens) widen() {
	for _, gs := range r.nw.groups {
		for i, id := range gs.members {
			if gs.listens[i] != AllTopics {
				r.declined[id] = ^gs.listens[i]
				gs.listens[i] = AllTopics
			}
		}
	}
}

func (r *everyoneListens) scopedOut(m *Message) bool {
	if m.Multicast && r.declined[m.To].Has(m.Topic) {
		r.withheld++
		return true
	}
	return false
}

// Withheld reports how many deliveries and drops the reference tracer
// kept from its handled tracer: the frames scoping removes.
func Withheld(t Tracer) int { return t.(*everyoneListens).withheld }

func (r *everyoneListens) MessageSent(t sim.Time, m *Message) {
	if m.Multicast {
		r.widen()
	}
	r.handled.MessageSent(t, m)
}

func (r *everyoneListens) MessageDelivered(t sim.Time, m *Message) {
	if !r.scopedOut(m) {
		r.handled.MessageDelivered(t, m)
	}
}

func (r *everyoneListens) MessageDropped(t sim.Time, m *Message, reason string) {
	if !r.scopedOut(m) {
		r.handled.MessageDropped(t, m, reason)
	}
}

func (r *everyoneListens) NodeEvent(t sim.Time, node NodeID, event string) {
	r.handled.NodeEvent(t, node, event)
}

// tcpHandle is a test's hold on the conversation dialTCP started. It acts
// only while that conversation owns the connection record: once the
// connection is back in the pool the record's gen has moved on, and a
// handle kept past its conversation never touches the next one.
type tcpHandle struct {
	c   *TCPConn
	gen uint32
}

// dialTCP is SendTCPWith returning a handle on the connection.
func dialTCP(nw *Network, cfg TCPConfig, from, to NodeID, out Outgoing, onResult func(error)) tcpHandle {
	c := nw.openTCP(cfg, from, to, out, onResult)
	h := tcpHandle{c: c, gen: c.gen}
	c.settle()
	return h
}

// live reports whether the conversation still holds its connection.
func (h tcpHandle) live() bool { return h.c.gen == h.gen }

// abort abandons the conversation's outstanding transfers; on a
// conversation that has ended it does nothing.
func (h tcpHandle) abort() {
	if h.live() {
		h.c.abort()
		h.c.settle()
	}
}

// tcpConnPool walks the connection pool: how many records it holds free,
// how many it ever made, how often they were released (each release
// bumps a record's gen), and whether any record is listed free twice.
func tcpConnPool(nw *Network) (free, made, releases int, dup bool) {
	seen := map[*TCPConn]bool{}
	for _, c := range nw.conns.free {
		if seen[c] {
			return free, made, releases, true
		}
		seen[c] = true
		free++
	}
	for _, ch := range nw.conns.chunks {
		made += len(ch)
		for i := range ch {
			releases += int(ch[i].gen)
		}
	}
	return free, made, releases, false
}

// Counted reports the total number of counted discovery sends.
func (c *Counters) Counted() int { return len(c.countedTimes) }

// Has reports whether the set holds the topic.
func (s TopicSet) Has(t Topic) bool { return s&t.bit() != 0 }

// stationaryLoss reports the chain's long-run average loss rate.
func (b BurstConfig) stationaryLoss() float64 {
	if b.GoodToBad+b.BadToGood == 0 {
		return b.GoodLoss
	}
	piB := b.GoodToBad / (b.GoodToBad + b.BadToGood)
	return piB*b.BadLoss + (1-piB)*b.GoodLoss
}

// drain fires every pending event, leaving the clock at the last one.
func drain(k *sim.Kernel) {
	for at, ok := k.NextEventTime(); ok; at, ok = k.NextEventTime() {
		k.Run(at)
	}
}
