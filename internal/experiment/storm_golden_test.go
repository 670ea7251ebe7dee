package experiment

import (
	"fmt"
	"hash/fnv"
	"maps"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// deliveryKinds counts the frames handed to endpoints, by packet kind.
type deliveryKinds map[string]int

func (deliveryKinds) MessageSent(sim.Time, *netsim.Message)            {}
func (deliveryKinds) MessageDropped(sim.Time, *netsim.Message, string) {}
func (deliveryKinds) NodeEvent(sim.Time, netsim.NodeID, string)        {}
func (d deliveryKinds) MessageDelivered(_ sim.Time, m *netsim.Message) { d[m.Packet.Kind.String()]++ }

// resultDigest hashes every observation a RunResult holds, field by field
// (never with %#v), so adding or removing a field it does not name leaves
// the digest unchanged.
func resultDigest(r metrics.RunResult) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d change=%d deadline=%d effort=%d sends=%d transport=%d\n",
		r.Seed, r.ChangeAt, r.Deadline, r.Effort, r.TotalDiscoverySends, r.TotalTransport)
	for _, u := range r.Users {
		fmt.Fprintf(h, "user=%d reached=%t at=%d excluded=%t\n", u.User, u.Reached, u.At, u.Excluded)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// stormSpec is a FRODO 2-party run whose Users boot within 1 ms of each
// other, as the benchmark's scale workloads do: a few percent of them
// announce a candidacy before the first Central claim reaches them, and
// every candidacy is delivered to all N nodes. A churning run also
// bisects the network for 300 s; with no absence its departures are
// permanent, so arrivals take over retired node slots.
func stormSpec(users int, churn Churn) RunSpec {
	p := DefaultParams()
	p.Topology = Topology{Users: users, BootJitter: sim.Millisecond}
	if churn.Enabled() {
		p.Churn = churn
		p.Partitions = []netsim.Partition{{Start: 800 * sim.Second, Duration: 300 * sim.Second, Bisect: true}}
	}
	return RunSpec{System: Frodo2P, Seed: 1, Params: p}
}

// TestCandidacyStormGoldens pins two runs whose election storms reach
// thousands of receivers — the RunResult, the delivery count and the
// deliveries per packet kind — so the receive path under the storm can
// be rebuilt for speed without moving a single event. Each runs cold and
// then rearmed on the same workspace, untraced and traced.
func TestCandidacyStormGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("two N ≥ 1,000 storm runs")
	}
	for _, c := range []struct {
		name      string
		spec      RunSpec
		digest    string
		delivered int
		kinds     deliveryKinds
	}{
		{"static N=2000", stormSpec(2000, Churn{}), "6650cb2bd02cdac0", 154142, deliveryKinds{
			"Announce": 20020, "AppointBackup": 2, "ElectionAnnounce": 110110, "RegistrationAck": 1,
			"RenewAck": 6003, "ServiceFound": 2000, "ServiceRegistration": 1, "ServiceSearch": 2000,
			"ServiceUpdate": 2001, "SubscriptionAck": 2000, "SubscriptionRenew": 6003,
			"SubscriptionRequest": 2000, "UpdateAck": 2001,
		}},
		{"churn+bisect N=1000", stormSpec(1000, Churn{Departures: 0.3, MeanAbsence: 600 * sim.Second, Arrivals: 50}), "1ce07b3026dc2aff", 190226, deliveryKinds{
			"Announce": 104608, "AppointBackup": 2, "ElectionAnnounce": 73372, "RegistrationAck": 1,
			"RenewAck": 2908, "RenewError": 4, "ResubscribeRequest": 3, "ServiceFound": 1107,
			"ServiceRegistration": 1, "ServiceSearch": 1107, "ServiceUpdate": 989, "SubscriptionAck": 1110,
			"SubscriptionRenew": 2915, "SubscriptionRequest": 1110, "UpdateAck": 989,
		}},
		{"permanent churn+bisect N=1000", stormSpec(1000, Churn{Departures: 0.5, Arrivals: 200}), "7ffc8dc00a97fa81", 533513, deliveryKinds{
			"Announce": 332188, "AppointBackup": 2, "ElectionAnnounce": 189697, "RegistrationAck": 1,
			"RenewAck": 2460, "ServiceFound": 1189, "ServiceRegistration": 1, "ServiceSearch": 1189,
			"ServiceUpdate": 973, "SubscriptionAck": 1190, "SubscriptionRenew": 2460,
			"SubscriptionRequest": 1190, "UpdateAck": 973,
		}},
	} {
		ws := NewWorkspace()
		for _, how := range []string{"cold", "rearmed"} {
			res, sc := runInWorkspace(ws, c.spec)
			if got := resultDigest(res); got != c.digest {
				t.Errorf("%s %s: RunResult digest %s, golden %s", c.name, how, got, c.digest)
			}
			if got := sc.Net.Counters().Delivered; got != c.delivered {
				t.Errorf("%s %s: %d deliveries, golden %d", c.name, how, got, c.delivered)
			}
		}
		traced := c.spec
		kinds := deliveryKinds{}
		traced.Attach = func(sc *Scenario) { sc.AddTracer(kinds) }
		if got := resultDigest(RunInto(ws, traced)); got != c.digest {
			t.Errorf("%s traced: RunResult digest %s, golden %s", c.name, got, c.digest)
		}
		if !maps.Equal(kinds, c.kinds) {
			t.Errorf("%s: deliveries by kind %#v, golden %#v", c.name, kinds, c.kinds)
		}
	}
}
