package obs

import (
	"strconv"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// NetMetrics feeds the registry from one network as a
// netsim.Tracer tee: frames sent/delivered/dropped (total, by kind, by
// drop reason), node lifecycle events, and the lease renewal/refusal
// exchange as observed on the wire (SubscriptionRenew requests and
// RenewError refusals). Per-message work is atomic adds plus RLocked
// map lookups — nothing allocates, so the conditioned fast-path alloc
// gates hold with telemetry attached.
type NetMetrics struct {
	sent, delivered, dropped *Counter
	renewals, refusals       *Counter
	sentKind                 *CounterVec
	dropReason               *CounterVec
	nodeEvents               *CounterVec
}

// NetTracer builds the frame-metrics tracer for one network, its series
// labeled with shard (0 for every simulated run; scrapers read the
// shard="0" series by name). Series are registered on first use and
// shared across repeated attachments (a sweep's runs aggregate into one
// set of counters).
func (r *Registry) NetTracer(shard int) *NetMetrics {
	s := strconv.Itoa(shard)
	return &NetMetrics{
		sent:       r.Counter("sd_frames_sent_total", "shard", s),
		delivered:  r.Counter("sd_frames_delivered_total", "shard", s),
		dropped:    r.Counter("sd_frames_dropped_total", "shard", s),
		renewals:   r.Counter("sd_lease_renewals_total", "shard", s),
		refusals:   r.Counter("sd_lease_refusals_total", "shard", s),
		sentKind:   r.CounterVec("sd_frames_sent_kind_total", "kind", "shard", s),
		dropReason: r.CounterVec("sd_frames_dropped_reason_total", "reason", "shard", s),
		nodeEvents: r.CounterVec("sd_node_events_total", "event", "shard", s),
	}
}

// MessageSent implements netsim.Tracer.
func (nm *NetMetrics) MessageSent(t sim.Time, m *netsim.Message) {
	nm.sent.Inc()
	nm.sentKind.Get(m.Kind).Inc()
}

// MessageDelivered implements netsim.Tracer.
func (nm *NetMetrics) MessageDelivered(t sim.Time, m *netsim.Message) {
	nm.delivered.Inc()
	switch m.Kind {
	case "SubscriptionRenew":
		nm.renewals.Inc()
	case "RenewError":
		nm.refusals.Inc()
	}
}

// MessageDropped implements netsim.Tracer.
func (nm *NetMetrics) MessageDropped(t sim.Time, m *netsim.Message, reason string) {
	nm.dropped.Inc()
	nm.dropReason.Get(reason).Inc()
}

// NodeEvent implements netsim.Tracer.
func (nm *NetMetrics) NodeEvent(t sim.Time, node netsim.NodeID, event string) {
	nm.nodeEvents.Get(event).Inc()
}
