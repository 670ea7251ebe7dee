package netsim

import (
	"errors"

	"repro/internal/sim"
)

// ErrREX is the Remote Exception surfaced to the discovery layer of UPnP
// and Jini when TCP connection setup fails after all retransmission
// attempts (Table 3).
var ErrREX = errors.New("netsim: remote exception (TCP connection setup failed)")

// ErrAborted reports that the sender abandoned the transfer (for example
// because the service changed again and the notification was superseded).
var ErrAborted = errors.New("netsim: transfer aborted by sender")

// TCPConfig models the Table 3 failure response of the reliable transport.
type TCPConfig struct {
	// SetupRetransmits are the gaps between successive connection-setup
	// attempts. Table 3: "4 retransmission attempts with delays 6s, 24s,
	// 24s, 24s, then REX if unsuccessful".
	SetupRetransmits []sim.Duration
	// SetupFinalWait is how long the last setup attempt waits for its
	// answer before the REX is raised.
	SetupFinalWait sim.Duration
	// MinRTO floors the first data-transfer timeout. Table 3 sets the
	// first timeout to the round-trip time; with 10–100µs LAN delays a
	// literal reading would retransmit millions of times during a long
	// interface failure, so we apply the RFC 6298 1s minimum. Only
	// uncounted transport frames are affected.
	MinRTO sim.Duration
	// Backoff multiplies the data-transfer timeout on every retry.
	// Table 3: "increasing timeout by 25% on each retry".
	Backoff float64

	// The remaining knobs are zero in the paper-faithful Table 3 model;
	// a hardened run sets them to the Hardened* bounds below.

	// DataRetransmits, when positive, caps how many times an
	// unacknowledged data frame is retransmitted; the transfer then
	// fails with ErrREX instead of retransmitting forever (the unbounded
	// tail is how a long interface outage converts a stale RenewAck into
	// an hours-late delivery).
	DataRetransmits int
	// MaxRTO, when positive, ceilings the exponential data-transfer
	// timeout.
	MaxRTO sim.Duration
	// RTOJitter, when positive, adds uniform jitter of up to
	// RTOJitter·RTO to every retransmission delay, drawn from the kernel
	// RNG (deterministic per seed). Zero draws nothing.
	RTOJitter float64
	// AbortOnRetire quietly aborts a connection's setup and transfers
	// once the sending node has retired (or its slot was recycled), so a
	// departed device never transmits again.
	AbortOnRetire bool
}

// The transport bounds of a hardened run. Eight data retransmissions from
// the 1s MinRTO at 1.25 backoff under a 60s RTO ceiling end a transfer
// within ~3min — far inside the oracle's lease-purge tolerance — where
// the Table 3 model retransmits forever and can deliver a stale RenewAck
// hours late.
const (
	HardenedDataRetransmits = 8
	HardenedMaxRTO          = 60 * sim.Second
	HardenedRTOJitter       = 0.5
)

// DefaultTCPConfig returns the Table 3 TCP failure response.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		SetupRetransmits: []sim.Duration{6 * sim.Second, 24 * sim.Second, 24 * sim.Second, 24 * sim.Second},
		SetupFinalWait:   24 * sim.Second,
		MinRTO:           1 * sim.Second,
		Backoff:          1.25,
	}
}

// TCPConn is one reliable transfer: connection setup followed by the
// delivery of a single discovery message, with the option of application
// replies flowing back over the established connection. The whole
// connection is simulated inside the network layer; the discovery layers
// only see delivered payloads and REX results, as in the NIST models.
//
// Connections are pooled records of their network, like the frames they
// exchange (see tcpFrame) and the reply transfers queued on them. A
// connection returns to the pool once it has no frame in flight (landed
// or dropped) and no unfinished transfer, so the Conn of a delivered
// Message is valid only during Deliver, like the Message itself; Reset
// and Rearm reclaim every connection still open.
type TCPConn struct {
	nw       *Network // nil while pooled
	cfg      TCPConfig
	from, to NodeID

	established bool
	rtt         sim.Duration
	aborted     bool

	// fromGen snapshots the initiating slot's tenancy so AbortOnRetire
	// can tell "this sender left" from "a new tenant reuses the slot".
	fromGen uint32
	// gen counts the record's releases; a frame carries the gen it was
	// sent under, so one outliving its conversation cannot act on the
	// next conversation to reuse the record.
	gen uint32

	// inFlight counts the frames on the wire that point at the
	// connection, open the transfers not yet finished; the connection
	// returns to the pool when both are zero (settle).
	inFlight int32
	open     int32

	// Setup runs on one timer that walks cfg.SetupRetransmits: setupStep
	// counts the retransmissions made, setupDue is the instant of the
	// pending step (the schedule is absolute from the first SYN), and the
	// step after the last retransmission raises the REX. Establishment and
	// abort cancel the timer.
	setupTimer *sim.Event
	setupStep  int
	setupDue   sim.Time

	// first is the transfer the connection was opened for and the head of
	// the transfer list; replies are pooled records linked behind it in
	// queue order.
	first tcpTransfer
	last  *tcpTransfer

	next *TCPConn // free-list link
}

// tcpTransfer is one payload moving across an established connection, in
// either direction.
type tcpTransfer struct {
	conn      *TCPConn
	from, to  NodeID
	fromGen   uint32 // sender slot tenancy at queue time (AbortOnRetire)
	out       Outgoing
	onResult  func(error)
	delivered bool       // receiver got the payload (dedup for retransmissions)
	acked     bool       // finished: acknowledged, failed or aborted
	timer     *sim.Event // pending retransmission, nil before start
	rto       sim.Duration
	sends     int
	next      *tcpTransfer // transfer list, or free list while pooled
}

// tcpFrameKind says what a TCP frame does when it arrives.
type tcpFrameKind uint8

const (
	tcpSYN tcpFrameKind = iota
	tcpSYNACK
	tcpData
	tcpACK
)

// tcpFrame is one TCP frame in flight: the Message plus what its arrival
// drives. Like every pooled frame it is recycled (and zeroed) as soon as
// its arrival has been handled, so the *Message an endpoint or Tracer is
// handed is valid only during that call.
type tcpFrame struct {
	nw      *Network
	m       Message
	gen     uint32 // receiver-slot tenancy the frame was aimed at
	connGen uint32 // conn.gen when the frame was sent
	kind    tcpFrameKind
	conn    *TCPConn
	tr      *tcpTransfer // data and ACK frames
	synAt   sim.Time     // SYN and SYN-ACK frames: when the SYN left, for the RTT
	next    *tcpFrame
}

// The TCP records — connections, reply transfers and frames — come from
// chunks the network keeps listed, like unicast deliveries, so Reset and
// Rearm can reclaim the ones the previous kernel still held.

func (nw *Network) allocConn() *TCPConn {
	if nw.freeConn == nil {
		c := sim.Chunk[TCPConn](&nw.connGrown, 16, 1024)
		nw.connChunks = append(nw.connChunks, c)
		for i := len(c) - 1; i >= 0; i-- {
			// Not through putConn: a fresh record has been released zero times.
			c[i].next = nw.freeConn
			nw.freeConn = &c[i]
		}
	}
	c := nw.freeConn
	nw.freeConn = c.next
	c.next = nil
	return c
}

// putConn zeroes a connection record, bumping its gen, and pools it.
func (nw *Network) putConn(c *TCPConn) {
	*c = TCPConn{gen: c.gen + 1, next: nw.freeConn}
	nw.freeConn = c
}

func (nw *Network) allocTransfer() *tcpTransfer {
	if nw.freeTransfer == nil {
		c := sim.Chunk[tcpTransfer](&nw.transferGrown, 16, 1024)
		nw.transferChunks = append(nw.transferChunks, c)
		for i := len(c) - 1; i >= 0; i-- {
			nw.putTransfer(&c[i])
		}
	}
	tr := nw.freeTransfer
	nw.freeTransfer = tr.next
	tr.next = nil
	return tr
}

func (nw *Network) putTransfer(tr *tcpTransfer) {
	*tr = tcpTransfer{next: nw.freeTransfer}
	nw.freeTransfer = tr
}

// allocTCPFrame takes a frame record for connection c and counts it in
// flight until releaseTCPFrame.
func (nw *Network) allocTCPFrame(c *TCPConn) *tcpFrame {
	if nw.freeTCPFrame == nil {
		ch := sim.Chunk[tcpFrame](&nw.frameGrown, 16, 1024)
		nw.frameChunks = append(nw.frameChunks, ch)
		for i := len(ch) - 1; i >= 0; i-- {
			nw.putTCPFrame(&ch[i])
		}
	}
	f := nw.freeTCPFrame
	nw.freeTCPFrame = f.next
	f.next = nil
	f.nw, f.conn, f.connGen = nw, c, c.gen
	c.inFlight++
	return f
}

// releaseTCPFrame pools a frame that landed or was dropped; the caller
// settles its connection.
func (nw *Network) releaseTCPFrame(f *tcpFrame) {
	f.conn.inFlight--
	nw.putTCPFrame(f)
}

func (nw *Network) putTCPFrame(f *tcpFrame) {
	*f = tcpFrame{next: nw.freeTCPFrame}
	nw.freeTCPFrame = f
}

// reclaimTCP returns every TCP record to its free list once the kernel
// has been reset (see reclaimDeliveries): the frames and timers that
// pointed at them went with the old event queue.
func (nw *Network) reclaimTCP() {
	nw.freeConn, nw.freeTransfer, nw.freeTCPFrame = nil, nil, nil
	for _, c := range nw.connChunks {
		for i := range c {
			nw.putConn(&c[i])
		}
	}
	for _, c := range nw.transferChunks {
		for i := range c {
			nw.putTransfer(&c[i])
		}
	}
	for _, c := range nw.frameChunks {
		for i := range c {
			nw.putTCPFrame(&c[i])
		}
	}
}

// settle pools the connection once nothing refers to it any more: no
// frame in flight and no transfer unfinished (which also means no setup
// or retransmission timer pending). Every entry into the transport — a
// send, a frame's arrival, a timer — ends with it.
func (c *TCPConn) settle() {
	if c.inFlight != 0 || c.open != 0 {
		return
	}
	nw := c.nw
	for tr := c.first.next; tr != nil; {
		next := tr.next
		nw.putTransfer(tr)
		tr = next
	}
	nw.putConn(c)
}

// sendTCPFrame models one TCP frame on the wire: accounted as sent, then
// dropped on Tx-down, partition or loss, otherwise handed to
// tcpFrameArrive after the link delay — the checks and random draws of
// every other frame, in the same order.
func (nw *Network) sendTCPFrame(f *tcpFrame) {
	m := &f.m
	nw.accountSend(m)
	reason := ""
	switch {
	case !nw.Node(m.From).txUp:
		reason = "tx down"
	case nw.partitioned(m.From, m.To):
		reason = "partitioned"
	case nw.linkLose(m.To):
		reason = "lost"
	}
	if reason != "" {
		nw.drop(m, reason)
		nw.releaseTCPFrame(f)
		return
	}
	delay := nw.linkDelay()
	f.gen = nw.Node(m.To).gen
	nw.k.AfterArg(delay, tcpFrameArrive, f)
}

// tcpFrameArrive is the static event callback for TCP frames whose delay
// has elapsed: slot-tenancy and Rx checks, then the step the frame drives.
func tcpFrameArrive(x any) {
	f := x.(*tcpFrame)
	nw, c := f.nw, f.conn
	if c.gen != f.connGen {
		panic("netsim: TCP frame outlived its connection")
	}
	recv := nw.Node(f.m.To)
	switch {
	case recv.gen != f.gen:
		nw.drop(&f.m, "slot recycled")
	case !recv.rxUp:
		nw.drop(&f.m, "rx down")
	case f.kind == tcpSYN:
		// Receiver answers SYN-ACK; connection is up when it lands.
		c.sendControl(tcpSYNACK, "tcp/SYN-ACK", f.m.To, f.m.From, nil, f.synAt)
	case f.kind == tcpSYNACK:
		c.establish(nw.k.Now() - f.synAt)
	case f.kind == tcpData:
		f.tr.arrived(&f.m)
	default:
		f.tr.acknowledged()
	}
	nw.releaseTCPFrame(f)
	c.settle()
}

// sendControl transmits one setup or acknowledgement frame.
func (c *TCPConn) sendControl(kind tcpFrameKind, name string, from, to NodeID, tr *tcpTransfer, synAt sim.Time) {
	f := c.nw.allocTCPFrame(c)
	f.kind, f.tr, f.synAt = kind, tr, synAt
	f.m = Message{From: from, To: to, Kind: name, Transport: TCPControl, SentAt: c.nw.k.Now()}
	c.nw.sendTCPFrame(f)
}

// SendTCP opens a connection from one node to another and reliably
// transfers one discovery message. onResult is called exactly once: with
// nil when the payload has been delivered and acknowledged, with ErrREX if
// connection setup fails, or with ErrAborted if the sender gives up.
// The receiver can answer over the connection (Message.Conn) while the
// payload is being delivered.
func (nw *Network) SendTCP(from, to NodeID, out Outgoing, onResult func(error)) {
	nw.SendTCPWith(DefaultTCPConfig(), from, to, out, onResult)
}

// SendTCPWith is SendTCP with an explicit transport configuration.
func (nw *Network) SendTCPWith(cfg TCPConfig, from, to NodeID, out Outgoing, onResult func(error)) {
	nw.openTCP(cfg, from, to, out, onResult).settle()
}

// openTCP opens the connection and sends its first SYN; the caller
// settles it.
func (nw *Network) openTCP(cfg TCPConfig, from, to NodeID, out Outgoing, onResult func(error)) *TCPConn {
	c := nw.allocConn()
	c.nw, c.cfg, c.from, c.to, c.fromGen = nw, cfg, from, to, nw.Node(from).gen
	c.queueTransfer(from, to, out, onResult)
	c.sendSYN()
	if !c.aborted {
		c.armSetup(nw.k.Now())
	}
	return c
}

// senderGone reports whether the hardened transport should abandon the
// connection: the initiating node retired (or its slot was recycled)
// after the connection was opened.
func (c *TCPConn) senderGone() bool {
	if !c.cfg.AbortOnRetire {
		return false
	}
	n := c.nw.Node(c.from)
	return n.retired || n.gen != c.fromGen
}

// Reply sends a discovery message back over the established connection
// (e.g. an HTTP response or a Jini event acknowledgement). It must only be
// called from the handler a payload of the connection is delivered to,
// while the Message is valid. Replies skip connection setup but still
// retransmit until acknowledged.
func (c *TCPConn) Reply(out Outgoing, onResult func(error)) {
	if c.nw == nil {
		panic("netsim: Reply on released TCP connection")
	}
	if !c.established {
		panic("netsim: Reply on unestablished TCP connection")
	}
	c.queueTransfer(c.to, c.from, out, onResult)
}

// abort abandons all outstanding transfers; their callbacks receive
// ErrAborted. Delivered-and-acknowledged transfers are unaffected.
func (c *TCPConn) abort() {
	if !c.aborted {
		c.fail(ErrAborted)
	}
}

// fail tears the connection down: setup stops, and every transfer not yet
// acknowledged finishes with err.
func (c *TCPConn) fail(err error) {
	c.aborted = true
	c.setupTimer.Cancel() // nil once established or fired
	c.setupTimer = nil
	for tr := &c.first; tr != nil; tr = tr.next {
		if !tr.acked {
			tr.timer.Cancel() // nil before start, else the pending retransmission
			tr.timer = nil
			tr.finish(err)
		}
	}
}

// Established reports whether connection setup completed.
func (c *TCPConn) Established() bool { return c.established }

// From reports the initiating node.
func (c *TCPConn) From() NodeID { return c.from }

// To reports the accepting node.
func (c *TCPConn) To() NodeID { return c.to }

func (c *TCPConn) queueTransfer(from, to NodeID, out Outgoing, onResult func(error)) {
	nw := c.nw
	// The discovery layer hands its message to the transport here; this
	// is the send attempt the Update Efficiency metrics count, whether or
	// not the connection ever comes up. (A NOTIFY whose connection REXes
	// was still effort spent — and counting it here keeps failed runs
	// from looking spuriously "efficient".)
	nw.acctScratch = out.frame(from, to, TCPData, nw.k.Now())
	nw.accountSend(&nw.acctScratch)
	tr := &c.first
	if c.last != nil {
		tr = nw.allocTransfer()
		c.last.next = tr
	}
	c.last = tr
	*tr = tcpTransfer{conn: c, from: from, to: to, fromGen: nw.Node(from).gen, out: out, onResult: onResult}
	c.open++
	switch {
	case c.aborted:
		// A reply to a payload that landed after the sender gave up: the
		// connection is torn down, so the reply fails at once.
		tr.finish(ErrAborted)
	case c.established:
		tr.start()
	}
}

// sendSYN makes one connection-setup attempt.
func (c *TCPConn) sendSYN() {
	if c.senderGone() {
		c.abort() // retired initiator: stop the SYN train silently
		return
	}
	c.sendControl(tcpSYN, "tcp/SYN", c.from, c.to, nil, c.nw.k.Now())
}

// armSetup schedules the next setup step — a retransmission per the
// configured schedule, the REX when the schedule is exhausted — its gap
// after the instant of the previous one.
func (c *TCPConn) armSetup(prev sim.Time) {
	gap := c.cfg.SetupFinalWait
	if c.setupStep < len(c.cfg.SetupRetransmits) {
		gap = c.cfg.SetupRetransmits[c.setupStep]
	}
	c.setupDue = prev + gap
	c.setupTimer = c.nw.k.AtArg(c.setupDue, tcpSetupStep, c)
}

// tcpSetupStep is the static callback of the setup timer. It only ever
// fires on a connection still in setup: establishment and abort cancel it.
func tcpSetupStep(x any) {
	c := x.(*TCPConn)
	c.setupTimer = nil // pooled-event ownership: the fired event is gone
	if c.setupStep == len(c.cfg.SetupRetransmits) {
		c.fail(ErrREX)
	} else {
		c.setupStep++
		c.sendSYN()
		if !c.aborted {
			c.armSetup(c.setupDue)
		}
	}
	c.settle()
}

// establish runs when a SYN-ACK lands at the initiator; later ones (of
// retransmitted SYNs) and ones outliving an abort change nothing.
func (c *TCPConn) establish(rtt sim.Duration) {
	if c.established || c.aborted {
		return
	}
	c.established = true
	c.rtt = rtt
	c.setupTimer.Cancel()
	c.setupTimer = nil
	for tr := &c.first; tr != nil; tr = tr.next {
		if !tr.acked {
			tr.start()
		}
	}
}

func (tr *tcpTransfer) start() {
	tr.rto = tr.conn.rtt
	if tr.rto < tr.conn.cfg.MinRTO {
		tr.rto = tr.conn.cfg.MinRTO
	}
	tr.send()
}

// senderGone mirrors TCPConn.senderGone for this transfer's direction —
// a Reply's sender is the accepting side, with its own slot tenancy.
func (tr *tcpTransfer) senderGone() bool {
	if !tr.conn.cfg.AbortOnRetire {
		return false
	}
	n := tr.conn.nw.Node(tr.from)
	return n.retired || n.gen != tr.fromGen
}

// send transmits the payload and arms the retransmission timer. It runs
// from start and from the timer's own firing, so no timer is pending here.
func (tr *tcpTransfer) send() {
	if tr.acked || tr.conn.aborted {
		return
	}
	if tr.senderGone() {
		tr.finish(ErrAborted)
		return
	}
	if max := tr.conn.cfg.DataRetransmits; max > 0 && tr.sends > max {
		// Hardened transports give up instead of retransmitting forever;
		// the discovery layer sees the same REX as a failed setup.
		tr.finish(ErrREX)
		return
	}
	nw := tr.conn.nw
	tr.sends++
	// Every data frame is a transport transmission: the discovery-layer
	// send was already accounted when the transfer was queued.
	f := nw.allocTCPFrame(tr.conn)
	f.kind, f.tr = tcpData, tr
	f.m = tr.out.frame(tr.from, tr.to, TCPData, nw.k.Now())
	f.m.Counted, f.m.Retransmit = false, true
	nw.sendTCPFrame(f)

	// Arm the retransmission timer: "retransmit until success, increasing
	// timeout by 25% on each retry".
	delay := tr.rto
	if j := tr.conn.cfg.RTOJitter; j > 0 {
		delay += nw.k.UniformDuration(0, sim.Duration(j*float64(tr.rto)))
	}
	tr.timer = nw.k.AfterArg(delay, tcpRetransmit, tr)
}

// tcpRetransmit is the static callback of the retransmission timer.
func tcpRetransmit(x any) {
	tr := x.(*tcpTransfer)
	tr.timer = nil // pooled-event ownership: the fired event is gone
	tr.rto = sim.Duration(float64(tr.rto) * tr.conn.cfg.Backoff)
	if max := tr.conn.cfg.MaxRTO; max > 0 && tr.rto > max {
		tr.rto = max
	}
	tr.send()
	tr.conn.settle()
}

// arrived runs at the receiver: deliver the payload once, always answer
// with a transport ACK (retransmissions re-ACK, as real TCP does).
func (tr *tcpTransfer) arrived(m *Message) {
	nw := tr.conn.nw
	if !tr.delivered {
		tr.delivered = true
		recv := nw.Node(tr.to)
		if recv.ep != nil {
			m.Conn = tr.conn
			nw.counters.recordDelivery(m)
			if nw.tracer != nil {
				nw.tracer.MessageDelivered(nw.k.Now(), m)
			}
			recv.ep.Deliver(m)
		}
	}
	tr.conn.sendControl(tcpACK, "tcp/ACK", tr.to, tr.from, tr, 0)
}

// acknowledged runs at the sender when an ACK lands.
func (tr *tcpTransfer) acknowledged() {
	if tr.acked || tr.conn.aborted {
		return
	}
	tr.timer.Cancel() // pending retransmission (send always re-arms)
	tr.timer = nil
	tr.finish(nil)
}

func (tr *tcpTransfer) finish(err error) {
	if tr.acked {
		return
	}
	tr.acked = true
	tr.conn.open--
	if tr.onResult != nil {
		tr.onResult(err)
	}
}
