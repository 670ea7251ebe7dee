package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// Config holds network-wide parameters; the defaults reproduce Table 3.
type Config struct {
	// MinDelay and MaxDelay bound the one-way transmission delay,
	// uniformly sampled per frame (Table 3: 10µs–100µs).
	MinDelay sim.Duration
	MaxDelay sim.Duration
	// Loss is the independent per-frame drop probability in [0,1]. Zero
	// for the paper's interface-failure experiments; nonzero reproduces
	// the message-loss model of the companion study [25].
	Loss float64
	// Link selects the adversarial link-conditioning models (burst loss,
	// heavy-tailed delay, reordering); the zero value keeps the idealized
	// network above and changes no random draw.
	Link LinkConfig
}

// Validate checks the configuration. New rejects invalid configurations
// with this error; Reset and Rearm, which reuse a network mid-sweep with
// configurations the caller already vetted, panic on it instead.
func (cfg Config) Validate() error {
	if cfg.MinDelay < 0 {
		return fmt.Errorf("netsim: negative MinDelay %v", cfg.MinDelay)
	}
	if cfg.MaxDelay < cfg.MinDelay {
		return fmt.Errorf("netsim: MaxDelay %v < MinDelay %v", cfg.MaxDelay, cfg.MinDelay)
	}
	if cfg.Loss < 0 || cfg.Loss > 1 {
		return fmt.Errorf("netsim: loss %v out of [0,1]", cfg.Loss)
	}
	if cfg.Loss > 0 && cfg.Link.Burst.Enabled() {
		return fmt.Errorf("netsim: i.i.d. Loss and burst loss are alternatives; set one")
	}
	return cfg.Link.validate()
}

// DefaultConfig returns the Table 3 network characteristics.
func DefaultConfig() Config {
	return Config{
		MinDelay: 10 * sim.Microsecond,
		MaxDelay: 100 * sim.Microsecond,
		Loss:     0,
	}
}

// multicastStagger separates the redundant copies of one multicast
// transmission (Table 3: UPnP and Jini transmit every multicast six
// times). Copies are distinct wire transmissions, sent this far apart.
const multicastStagger = 1 * sim.Millisecond

// groupSet is a multicast group's membership: a dense slice for ordered,
// allocation-free fan-out plus a map index so Join and removal are O(1)
// instead of scanning. Removal swap-deletes, so membership order is a
// deterministic function of the join/leave sequence (which is all the
// simulation needs — fan-out draws randomness in membership order, and
// replays only have to match themselves). listens[i] is the topic set
// members[i] declared, kept in a parallel slice so the fan-out loop reads
// it sequentially and a member that leaves takes its declaration along.
type groupSet struct {
	members []NodeID
	listens []TopicSet
	index   map[NodeID]int
}

func newGroupSet() *groupSet {
	return &groupSet{index: make(map[NodeID]int)}
}

// add joins id, or re-declares what a current member listens for; its
// place in the membership order is that of its first join either way.
func (gs *groupSet) add(id NodeID, listens TopicSet) {
	listens |= Topic(0).bit()
	if i, ok := gs.index[id]; ok {
		gs.listens[i] = listens
		return
	}
	gs.index[id] = len(gs.members)
	gs.members = append(gs.members, id)
	gs.listens = append(gs.listens, listens)
}

func (gs *groupSet) remove(id NodeID) {
	i, ok := gs.index[id]
	if !ok {
		return
	}
	last := len(gs.members) - 1
	moved := gs.members[last]
	gs.members[i] = moved
	gs.listens[i] = gs.listens[last]
	gs.index[moved] = i
	gs.members = gs.members[:last]
	gs.listens = gs.listens[:last]
	delete(gs.index, id)
}

func (gs *groupSet) reset() {
	gs.members = gs.members[:0]
	gs.listens = gs.listens[:0]
	clear(gs.index)
}

// Network is the simulated LAN. It is owned by a single kernel and is not
// safe for concurrent use; run-level parallelism happens one network per
// goroutine.
type Network struct {
	k        *sim.Kernel
	cfg      Config
	nodes    []*Node
	slots    []slot   // each node's hot state, indexed like nodes
	retired  []NodeID // node slots released by Retire, reused by AddNode
	groups   map[Group]*groupSet
	tracer   Tracer
	counters Counters

	// The records of frames, trains, TCP conversations and planned
	// transitions (see pool); Rearm reclaims them all.
	deliveries pool[delivery, *delivery]
	fanouts    pool[fanout, *fanout]
	mcopies    pool[mcopy, *mcopy]
	conns      pool[TCPConn, *TCPConn]
	transfers  pool[tcpTransfer, *tcpTransfer]
	tcpFrames  pool[tcpFrame, *tcpFrame]
	outages    pool[outage, *outage]
	partEvents pool[partEvent, *partEvent]
	// fanScratch is armFanout's radix-sort buffer; like the pools it is
	// kept across Rearm.
	fanScratch []fanEntry
	// spareNodes recycles Node structs across Rearm cycles.
	spareNodes []*Node

	// Link-conditioning state (see link.go): the per-receiver
	// Gilbert–Elliott chains, the precomputed delay quantile table and
	// the key it was built from.
	burstOn    bool
	geState    []uint8
	delayTable []sim.Duration
	delayKey   delayTableKey
	// Partition state (see partition.go): the side bitmap of the active
	// split, the activation record that owns it, and the windows
	// scheduled so far.
	partActive  bool
	partOwner   *partEvent
	partSideB   []bool
	partWindows []Partition

	// acctScratch is the Message used to account sends that own no frame
	// record (the discovery-layer send of a TCP transfer) without
	// allocating one.
	acctScratch Message
}

// New creates an empty network on the given kernel. An invalid
// configuration is reported as an error, so a bad sweep parameterization
// fails at construction instead of panicking mid-run.
func New(k *sim.Kernel, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nw := &Network{k: k, cfg: cfg, groups: make(map[Group]*groupSet)}
	nw.prepareLink()
	return nw, nil
}

// MustNew is New for configurations known to be valid (literals,
// DefaultConfig derivatives); it panics on error. Sweep-facing code must
// use New and surface the error instead.
func MustNew(k *sim.Kernel, cfg Config) *Network {
	nw, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return nw
}

// Reset empties the network for a fresh simulation on kernel k: it is
// Rearm keeping no node slot, so every *Node is invalid afterwards too.
func (nw *Network) Reset(k *sim.Kernel, cfg Config) { nw.Rearm(k, cfg, 0) }

// Rearm prepares the network for a fresh simulation that reuses the
// previous scenario's node slots: the first keep slots survive with their
// IDs and slot tenancies, interfaces up and retirement cleared, while
// endpoints, hooks and names are wiped — the protocol instances that own
// the slots re-bind themselves during their own rearm, exactly as their
// constructors did. Slots beyond keep (mid-run churn arrivals) are
// released to the spare pool. Group membership is cleared for the same
// reason: rearming instances re-Join in construction order, so multicast
// fan-out order replays the fresh-build order bit for bit.
//
// Rearm must run after the owning kernel's Reset and before any new
// scheduling. It keeps all allocated capacity — node structs, group
// storage, counter slices, the record pools — and reclaims every record
// the reset kernel still held: frames in flight, open TCP connections,
// transitions past the horizon. Every *TCPConn and Tracer of the
// previous run is invalid afterwards; *Node pointers to the kept slots
// remain valid.
func (nw *Network) Rearm(k *sim.Kernel, cfg Config, keep int) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if keep > len(nw.nodes) {
		panic("netsim: Rearm keep exceeds node count")
	}
	nw.k = k
	nw.cfg = cfg
	nw.park(nw.nodes[keep:])
	clear(nw.nodes[keep:])
	nw.nodes = nw.nodes[:keep]
	// The released slots' endpoints would otherwise keep the previous
	// run's protocol graph reachable from the table's backing array.
	clear(nw.slots[keep:])
	nw.slots = nw.slots[:keep]
	nw.retired = nw.retired[:0]
	for _, n := range nw.nodes {
		n.Name = ""
		n.onInterfaceChange = nil
	}
	for i := range nw.slots {
		nw.slots[i] = slot{gen: nw.slots[i].gen, txUp: true, rxUp: true}
	}
	for _, gs := range nw.groups {
		gs.reset()
	}
	nw.tracer = nil
	nw.counters.reset()
	nw.deliveries.reclaim()
	nw.fanouts.reclaim()
	nw.mcopies.reclaim()
	nw.conns.reclaim()
	nw.transfers.reclaim()
	nw.tcpFrames.reclaim()
	nw.outages.reclaim()
	nw.partEvents.reclaim()
	nw.partActive = false
	nw.partOwner = nil
	nw.partWindows = nw.partWindows[:0]
	nw.prepareLink()
}

// park zeroes node structs and keeps them for later AddNode calls: a
// parked node's interface hook would otherwise keep the previous run's
// whole protocol graph reachable until the slot is reused.
func (nw *Network) park(nodes []*Node) {
	for _, n := range nodes {
		*n = Node{}
	}
	nw.spareNodes = append(nw.spareNodes, nodes...)
}

// Kernel reports the owning simulation kernel.
func (nw *Network) Kernel() *sim.Kernel { return nw.k }

// SetTracer installs an event tracer; nil disables tracing.
func (nw *Network) SetTracer(t Tracer) { nw.tracer = t }

// Tracer reports the installed tracer, nil if none. Observers that
// attach mid-setup (the consistency oracle) use it to tee onto an
// already-installed tracer instead of displacing it.
func (nw *Network) Tracer() Tracer { return nw.tracer }

// Counters exposes the message accounting for this network.
func (nw *Network) Counters() *Counters { return &nw.counters }

// AddNode attaches a new node with both interfaces up. Slots released by
// Retire are reused — ID and all — so long-running scenarios with churn
// keep the node table bounded by the peak population.
func (nw *Network) AddNode(name string) *Node {
	if n := len(nw.retired); n > 0 {
		id := nw.retired[n-1]
		nw.retired = nw.retired[:n-1]
		node := nw.nodes[id]
		*node = Node{ID: id, Name: name, net: nw}
		nw.slots[id] = slot{gen: nw.slots[id].gen + 1, txUp: true, rxUp: true}
		if nw.burstOn {
			nw.geState[id] = geGood // a fresh tenant starts a fresh chain
		}
		if int(id) < len(nw.partSideB) {
			// A recycled slot's new tenant is a fresh arrival: it lands on
			// side A of any active partition, like every post-activation
			// attach, instead of inheriting its predecessor's side.
			nw.partSideB[id] = false
		}
		nw.traceNode(id, "attached")
		return node
	}
	var n *Node
	if s := len(nw.spareNodes); s > 0 {
		n = nw.spareNodes[s-1]
		nw.spareNodes[s-1] = nil
		nw.spareNodes = nw.spareNodes[:s-1]
	} else {
		n = &Node{}
	}
	if len(nw.nodes) > math.MaxInt32 {
		panic("netsim: node table full") // fanEntry keeps receivers as int32
	}
	*n = Node{ID: NodeID(len(nw.nodes)), Name: name, net: nw}
	nw.nodes = append(nw.nodes, n)
	nw.slots = append(nw.slots, slot{txUp: true, rxUp: true})
	if nw.burstOn {
		nw.geState = append(nw.geState, geGood)
	}
	nw.traceNode(n.ID, "attached")
	return n
}

// Grow reserves room for n more nodes: a build that knows its population
// attaches it without regrowing the node table and the slot table one
// append at a time.
func (nw *Network) Grow(n int) {
	nw.nodes = slices.Grow(nw.nodes, n)
	nw.slots = slices.Grow(nw.slots, n)
}

// Retire permanently detaches a node: its endpoint is dropped, both
// interfaces are forced (and pinned) down, it leaves every multicast
// group, and its slot becomes reusable by a later AddNode. The caller
// must have quiesced the protocol instance first (stopped its timers) —
// a retired slot may be handed to a brand-new device, and a zombie timer
// would then transmit under the new device's identity.
func (nw *Network) Retire(id NodeID) {
	n := nw.Node(id)
	s := &nw.slots[id]
	if s.retired {
		return
	}
	*s = slot{gen: s.gen, retired: true}
	n.onInterfaceChange = nil
	for _, gs := range nw.groups {
		gs.remove(id)
	}
	nw.retired = append(nw.retired, id)
	nw.traceNode(id, "retired")
}

// Node returns the node with the given ID.
func (nw *Network) Node(id NodeID) *Node {
	if !nw.known(id) {
		panic(fmt.Sprintf("netsim: unknown node %d", id))
	}
	return nw.nodes[id]
}

// known reports whether id indexes this network's per-node tables (nodes,
// slots, geState, partSideB).
func (nw *Network) known(id NodeID) bool { return id >= 0 && int(id) < len(nw.nodes) }

// Nodes reports how many nodes are attached (including retired slots).
func (nw *Network) Nodes() int { return len(nw.nodes) }

func (nw *Network) group(g Group) *groupSet {
	gs := nw.groups[g]
	if gs == nil {
		gs = newGroupSet()
		nw.groups[g] = gs
	}
	return gs
}

// Join subscribes a node to a multicast group as a listener to everything
// the group carries — always correct, whatever the endpoint handles.
func (nw *Network) Join(id NodeID, g Group) { nw.JoinTopics(id, g, AllTopics) }

// JoinTopics subscribes a node to a multicast group and declares the
// topics its endpoint handles: a frame sent under any other topic is
// never handed to it (unscoped frames always are). Calling it again
// re-declares, keeping the node's place in the membership order — a
// protocol instance does so whenever the set of kinds it acts on changes.
// The declaration is a promise that Deliver is a no-op for the declined
// topics' frames; it lasts until the node leaves the group (Retire,
// Reset, Rearm).
func (nw *Network) JoinTopics(id NodeID, g Group, listens TopicSet) {
	nw.group(g).add(id, listens)
}

// Members returns a copy of the current membership of a multicast group.
// For tests and diagnostics; the fan-out path iterates the membership
// in place via members.
func (nw *Network) Members(g Group) []NodeID {
	members, _ := nw.members(g)
	out := make([]NodeID, len(members))
	copy(out, members)
	return out
}

// members is the no-copy accessor behind Members and the fan-out paths:
// the live membership slice and, index for index, what each member
// listens for. Valid only until the next Join/Retire; must not be
// mutated.
func (nw *Network) members(g Group) ([]NodeID, []TopicSet) {
	if gs := nw.groups[g]; gs != nil {
		return gs.members, gs.listens
	}
	return nil, nil
}

// delivery is one in-flight unicast frame. The Message is delivered by
// pointer and recycled as soon as the endpoint's Deliver returns, so
// endpoints must not retain *Message past the call (its Packet is a
// value and may be kept).
type delivery struct {
	nw  *Network
	m   Message
	gen uint32 // receiver-slot tenancy the frame was aimed at
}

func (d *delivery) recycle() { *d = delivery{} }

// deliverUDP is the static event callback for pooled unicast deliveries
// (static + pooled argument = no per-frame closure allocation).
func deliverUDP(x any) {
	d := x.(*delivery)
	d.nw.deliverNow(&d.m, d.gen)
	d.nw.deliveries.put(d)
}

// deliverNow runs the receive path for an application frame whose delay
// has elapsed: slot-tenancy and Rx checks, then endpoint hand-off. gen
// is the receiver slot's tenancy at send time — if the slot was retired
// and recycled while the frame was in flight, the new tenant must not
// receive its predecessor's traffic.
func (nw *Network) deliverNow(m *Message, gen uint32) {
	recv := nw.slots[m.To]
	if recv.gen != gen {
		nw.drop(m, "slot recycled")
		return
	}
	if !recv.rxUp {
		nw.drop(m, "rx down")
		return
	}
	if recv.ep == nil {
		nw.drop(m, "no endpoint")
		return
	}
	nw.counters.recordDelivery(m)
	if nw.tracer != nil {
		nw.tracer.MessageDelivered(nw.k.Now(), m)
	}
	recv.ep.Deliver(m)
}

// SendUDP transmits one unreliable datagram (Table 3 UDP: "Message
// discarded. No retransmission."). The send is attempted even when the
// transmitter is down — the device cannot know its interface has failed —
// and the frame is then silently lost.
func (nw *Network) SendUDP(from, to NodeID, out Outgoing) {
	d := nw.deliveries.get()
	d.nw, d.m, d.gen = nw, out.frame(from, to, UDP), nw.slots[to].gen
	nw.accountSend(&d.m)
	if !nw.slots[from].txUp {
		nw.drop(&d.m, "tx down")
		nw.deliveries.put(d)
		return
	}
	if nw.partitioned(from, to) {
		nw.drop(&d.m, "partitioned")
		nw.deliveries.put(d)
		return
	}
	if nw.linkLose(to) {
		nw.drop(&d.m, "lost")
		nw.deliveries.put(d)
		return
	}
	nw.k.AfterArg(nw.linkDelay(), deliverUDP, d)
}

// mcopy is a pending staggered multicast copy (copies 2..n of a
// transmission, sent multicastStagger apart), pinned to the sender
// slot's tenancy at the time of the original transmission.
type mcopy struct {
	nw   *Network
	from NodeID
	gen  uint32
	g    Group
	out  Outgoing
}

func (c *mcopy) recycle() { *c = mcopy{} }

func runMulticastCopy(x any) {
	c := x.(*mcopy)
	nw := c.nw
	// If the sender's slot was retired and recycled while this copy was
	// pending, the new tenant must not transmit its predecessor's frame.
	// (A retired-but-unrecycled sender keeps its gen and still runs the
	// copy, dropping per receiver on Tx-down, like any frame.)
	if nw.slots[c.from].gen == c.gen {
		nw.multicastCopy(c.from, c.g, c.out)
	}
	nw.mcopies.put(c)
}

// Multicast transmits copies redundant frames of the same discovery
// message to every member of the group except the sender. Each copy is one
// wire transmission (one counted send) fanned out to all members; each
// member's reception sees an independent delay and loss draw.
func (nw *Network) Multicast(from NodeID, g Group, out Outgoing, copies int) {
	nw.multicastCopy(from, g, out)
	gen := nw.slots[from].gen
	for c := 1; c < copies; c++ {
		mc := nw.mcopies.get()
		mc.nw, mc.from, mc.gen, mc.g, mc.out = nw, from, gen, g, out
		nw.k.AfterArg(sim.Duration(c)*multicastStagger, runMulticastCopy, mc)
	}
}

// fanEntry is one receiver of a multicast copy, its arrival instant,
// and the receiver slot's tenancy at send time: 16 bytes, the receiver
// kept as an int32 (AddNode refuses a table that outgrows it), so the
// arrival sort's scatter passes and the train walk move a third less
// than with a full-width NodeID.
type fanEntry struct {
	at  sim.Time
	to  int32
	gen uint32
}

// fanout is one multicast copy in flight: a single shared wire-message
// fanned out to its receivers through one walking kernel event instead
// of one event (plus message, plus closure) per receiver. Entries are
// sorted by arrival time; same-instant arrivals are delivered in one
// batch. The delivery Message handed to endpoints is the shared scratch,
// re-pointed per receiver — valid only during Deliver, like every pooled
// frame.
type fanout struct {
	nw      *Network
	wire    Message // the shared immutable wire-message (To == NoNode)
	scratch Message // per-receiver view for delivery and drop reporting
	entries []fanEntry
	i       int
}

// recycle keeps the capacity of the train, so a pooled fanout re-arms
// without allocating.
func (f *fanout) recycle() { *f = fanout{entries: f.entries[:0]} }

// multicastCopy sends one wire transmission of a multicast message and
// arms its delivery train. Loss and delay are drawn per member in
// membership order, exactly as if each member's frame were scheduled
// individually — for every member, including those that do not listen
// for the frame's topic. A frame exists only for listeners: a
// non-listener gets no drop record, no tracer callback and no train
// entry, and its endpoint is never touched.
func (nw *Network) multicastCopy(from NodeID, g Group, out Outgoing) {
	f := nw.fanouts.get()
	f.nw = nw
	f.wire = out.frame(from, NoNode, UDP)
	f.wire.Multicast, f.wire.Topic = true, out.Topic
	nw.accountSend(&f.wire)

	members, listens := nw.members(g)
	topic := out.Topic.bit()
	if !nw.slots[from].txUp {
		// The transmitter is down: every listener's frame is lost on the
		// wire, one drop per would-be receiver (matching the per-frame
		// accounting of the unbatched path).
		for i, to := range members {
			if to == from || listens[i]&topic == 0 {
				continue
			}
			nw.dropCopy(f, to, "tx down")
		}
		nw.fanouts.put(f)
		return
	}
	now := nw.k.Now()
	for i, to := range members {
		if to == from {
			continue
		}
		heard := listens[i]&topic != 0
		if nw.partitioned(from, to) {
			if heard {
				nw.dropCopy(f, to, "partitioned")
			}
			continue
		}
		if nw.linkLose(to) {
			if heard {
				nw.dropCopy(f, to, "lost")
			}
			continue
		}
		// The sample-path anchor: a non-listener's loss and delay draws
		// are made and discarded, so scoping a frame shifts nobody's
		// random stream and every timeline replays the everyone-listens
		// one bit for bit. ROADMAP item 8(b)'s single re-baseline deletes
		// exactly this — `if !heard { continue }` moves above the draws.
		at := now + nw.linkDelay()
		if heard {
			f.entries = append(f.entries, fanEntry{at: at, to: int32(to), gen: nw.slots[to].gen})
		}
	}
	nw.armFanout(f)
}

// dropCopy reports one listener's copy of a multicast frame as dropped.
func (nw *Network) dropCopy(f *fanout, to NodeID, reason string) {
	f.scratch = f.wire
	f.scratch.To = to
	nw.drop(&f.scratch, reason)
}

// armFanout orders a freshly drawn train by arrival instant and schedules
// its first batch; an empty train is released.
func (nw *Network) armFanout(f *fanout) {
	if len(f.entries) == 0 {
		nw.fanouts.put(f)
		return
	}
	f.entries, nw.fanScratch = sortByArrival(f.entries, nw.fanScratch, nw.k.Now())
	nw.k.AtArg(f.entries[0].at, deliverFanout, f)
}

// fanInsertionMax is the train length up to which sortByArrival orders by
// insertion: paper-scale groups (a handful of members) never reach the
// radix passes or their scratch buffer.
const fanInsertionMax = 48

// radixBits is the widest digit of sortByArrival's passes: two digits
// cover every delay below 2²² ns (4.2 ms), Table 3's 10–100 µs frames
// among them, and a digit's counts stay small enough to sit in L1.
const radixBits = 11

// sortByArrival orders a by arrival instant, stably — same-instant
// receivers keep membership order, the order their delay draws were made
// in — and in linear time: an LSD radix sort on at-now (never negative:
// delays are not), in digits as wide as the train is long (8 to 11 bits,
// so a short train does not pay for 2,048 buckets). One histogram pass
// counts both low digits and finds the span, then one scatter pass per
// digit the span has: two for Table 3's 10–100 µs on a train of 2,048 or
// more, three on a shorter one, more (each counting its own digit) under
// a Pareto tail. Passes ping-pong between a and tmp, so the result may
// live in either: it returns the sorted slice and the other one, for the
// caller to keep as the next call's tmp.
func sortByArrival(a, tmp []fanEntry, now sim.Time) (sorted, spare []fanEntry) {
	n := len(a)
	if n <= fanInsertionMax {
		for i := 1; i < n; i++ {
			e := a[i]
			j := i
			for ; j > 0 && a[j-1].at > e.at; j-- {
				a[j] = a[j-1]
			}
			a[j] = e
		}
		return a, tmp
	}
	if cap(tmp) < n {
		// The train's own buffer grew by append, with headroom; the
		// scratch takes as much, or a population that grows one node at
		// a time would re-make it for every train.
		tmp = make([]fanEntry, n, cap(a))
	}
	tmp = tmp[:n]
	width := min(max(bits.Len(uint(n)), 8), radixBits)
	mask := uint64(1)<<width - 1
	var counts [2][1 << radixBits]uint32
	var span uint64
	for i := range a {
		d := uint64(a[i].at - now)
		span |= d
		counts[0][d&mask]++
		counts[1][d>>width&mask]++
	}
	for shift := 0; span>>shift != 0; shift += width {
		count := counts[min(shift/width, 1)][:mask+1]
		if shift > width {
			clear(count)
			for i := range a {
				count[uint64(a[i].at-now)>>shift&mask]++
			}
		}
		if count[uint64(a[0].at-now)>>shift&mask] == uint32(n) {
			continue // every key has the same digit here
		}
		var pos uint32
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for i := range a {
			d := uint64(a[i].at-now) >> shift & mask
			tmp[count[d]] = a[i]
			count[d]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
}

// deliverFanout walks a fanout train: deliver every entry due now, then
// move on to the next arrival instant — in place when the kernel has
// nothing due first (Kernel.AdvanceTo), through a re-armed event otherwise.
func deliverFanout(x any) {
	f := x.(*fanout)
	nw := f.nw
	for {
		now := nw.k.Now()
		for f.i < len(f.entries) && f.entries[f.i].at == now {
			e := f.entries[f.i]
			f.i++
			f.scratch = f.wire
			f.scratch.To = NodeID(e.to)
			nw.deliverNow(&f.scratch, e.gen)
		}
		if f.i == len(f.entries) {
			nw.fanouts.put(f)
			return
		}
		if next := f.entries[f.i].at; !nw.k.AdvanceTo(next) {
			nw.k.AtArg(next, deliverFanout, f)
			return
		}
	}
}

// accountSend records one wire transmission for the metrics.
func (nw *Network) accountSend(m *Message) {
	nw.counters.recordSend(nw.k.Now(), m)
	if nw.tracer != nil {
		nw.tracer.MessageSent(nw.k.Now(), m)
	}
}

func (nw *Network) drop(m *Message, reason string) {
	nw.counters.recordDrop(m)
	if nw.tracer != nil {
		nw.tracer.MessageDropped(nw.k.Now(), m, reason)
	}
}

func (nw *Network) traceNode(id NodeID, event string) {
	if nw.tracer != nil {
		nw.tracer.NodeEvent(nw.k.Now(), id, event)
	}
}
