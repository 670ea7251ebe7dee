package frodo_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/frodo"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// eachFrodoNode visits every FRODO device of a built scenario and
// reports how many it visited.
func eachFrodoNode(sc *experiment.Scenario, fn func(*frodo.Node)) (visited int) {
	for _, id := range sc.AllNodeIDs() {
		if nd := frodo.NodeOf(sc.Net.Node(id).Endpoint()); nd != nil {
			fn(nd)
			visited++
		}
	}
	return visited
}

// eagerRegistries is construction as it was before the Registry
// capability became lazy, kept as a test-only reference: every 300D node
// of the freshly built (or rearmed) boot population gets its RegistryRole
// up front, elected or not. It reports how many it gave one.
func eagerRegistries(sc *experiment.Scenario) (eager int) {
	eachFrodoNode(sc, func(nd *frodo.Node) {
		if nd.Class() == frodo.Class300D {
			nd.EnsureRegistry()
			eager++
		}
	})
	return eager
}

// lazySpec is the paper's 5400 s design with 40 Users under λ interface
// failures. "takeover" raises λ to 0.6, where an outage (3240 s) outlasts
// the Backup timeout and the Central lease, so Backups take over and
// elections re-run; the dynamics arms add churn, then a flash crowd, a
// bisect partition and rack failures on top.
func lazySpec(sys experiment.System, dynamics string, seed int64, harden bool) experiment.RunSpec {
	p := experiment.DefaultParams()
	p.Topology.Users = 40
	spec := experiment.RunSpec{System: sys, Lambda: 0.30, Seed: seed, Opts: experiment.Options{Hardened: harden}}
	switch dynamics {
	case "takeover":
		spec.Lambda = 0.60
	case "churn", "churn+flash+bisect+racks":
		p.Churn = experiment.Churn{Departures: 1.5, MeanAbsence: 600 * sim.Second, Arrivals: 8}
	}
	if dynamics == "churn+flash+bisect+racks" {
		p.FlashCrowds = []experiment.FlashCrowd{{At: 1500 * sim.Second, Users: 12, Window: 60 * sim.Second}}
		p.Partitions = []netsim.Partition{{Start: 800 * sim.Second, Duration: 300 * sim.Second, Bisect: true}}
		p.RackFailures = netsim.RackPlanConfig{
			Racks: 8, Fail: 2,
			WindowStart: 150 * sim.Second, WindowEnd: 2400 * sim.Second,
			Duration: 300 * sim.Second, Spread: 5 * sim.Second,
		}
	}
	spec.Params = p
	return spec
}

// TestLazyRegistryMatchesEager: materialising the Registry capability on
// first need gives the RunResult that building it into every 300D node
// gave — both FRODO systems, baseline and hardened, static and dynamic
// populations, through a cold build and a Workspace rearm. Six seeds,
// because a skipped AppointBackup on a node without the capability shows
// in only a few cells per seed (15 of the 96 here).
func TestLazyRegistryMatchesEager(t *testing.T) {
	for _, sys := range []experiment.System{experiment.Frodo3P, experiment.Frodo2P} {
		for _, harden := range []bool{false, true} {
			for _, dynamics := range []string{"static", "takeover", "churn", "churn+flash+bisect+racks"} {
				for seed := int64(42); seed <= 47; seed++ {
					name := fmt.Sprintf("%s/harden=%v/%s/seed%d", sys.Short(), harden, dynamics, seed)
					lazy := lazySpec(sys, dynamics, seed, harden)
					eager := lazy
					eagerNodes := 0
					eager.Attach = func(sc *experiment.Scenario) { eagerNodes += eagerRegistries(sc) }
					// atBuild counts the capabilities that exist when a run
					// starts: none on a cold build; on a rearm, what the
					// previous run's elections and failures materialised.
					atBuild := 0
					lazy.Attach = func(sc *experiment.Scenario) {
						eachFrodoNode(sc, func(nd *frodo.Node) {
							if nd.Registry() != nil {
								atBuild++
							}
						})
					}

					lazyWS, eagerWS := experiment.NewWorkspace(), experiment.NewWorkspace()
					want := experiment.RunInto(eagerWS, eager)
					check := func(how string, got any) {
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: %s differs from the eager cold build:\n got  %+v\n want %+v", name, how, got, want)
						}
					}
					check("eager rearmed", experiment.RunInto(eagerWS, eager))
					if eagerNodes == 0 {
						t.Fatalf("%s: the eager reference gave no node a Registry capability", name)
					}
					check("lazy cold", experiment.RunInto(lazyWS, lazy))
					if atBuild != 0 {
						t.Errorf("%s: %d Registry capabilities exist before the first election", name, atBuild)
					}
					check("lazy rearmed", experiment.RunInto(lazyWS, lazy))
					// A rearmed kernel keeps the capabilities of whoever held
					// the role — under λ = 0.3 the Central, the Backup and a
					// few nodes that elected themselves while deaf, never the
					// population's.
					if atBuild < 1 || dynamics == "static" && atBuild > 10 {
						t.Errorf("%s: %d of the 43 boot nodes carry a Registry capability into the rearm", name, atBuild)
					}
				}
			}
		}
	}
}

// The ballot mirrors two bits of its Node, which stays authoritative: the
// Central bit is IsCentral and the running bit the Node's own. The Node's
// vouched bit in turn mirrors its User's cache: it is set exactly when
// the renewal walk of a Central announcement would find a record to
// renew. After every delivery of every lazy-equivalence arm — churn, a
// flash crowd, a bisect partition, rack failures, Backup takeovers at
// λ = 0.6, hardened or not, cold and rearmed — the receiver's record
// agrees with its Node, and its vouched bit with its walk; each arm sees
// the bit both set and clear.
func TestBallotMirrorsNode(t *testing.T) {
	for _, sys := range []experiment.System{experiment.Frodo3P, experiment.Frodo2P} {
		for _, harden := range []bool{false, true} {
			for _, dynamics := range []string{"static", "takeover", "churn", "churn+flash+bisect+racks"} {
				name := fmt.Sprintf("%s/harden=%v/%s", sys.Short(), harden, dynamics)
				spec := lazySpec(sys, dynamics, 42, harden)
				checked, centrals, vouched := 0, 0, 0
				var mirror *mirrorCheck
				spec.Attach = func(sc *experiment.Scenario) {
					mirror = &mirrorCheck{t: t, name: name, nw: sc.Net, prev: netsim.NoNode}
					sc.AddTracer(mirror)
				}
				ws := experiment.NewWorkspace()
				for range 2 {
					experiment.RunInto(ws, spec)
					mirror.check(mirror.prev)
					checked += mirror.checked
					centrals += mirror.centrals
					vouched += mirror.vouched
				}
				if checked == 0 || centrals == 0 || vouched == 0 || vouched == checked {
					t.Errorf("%s: checked %d deliveries, %d of them to a Central, %d to a vouched User",
						name, checked, centrals, vouched)
				}
			}
		}
	}
}

// mirrorCheck checks the receiver of each delivery once the delivery has
// been handled: at the next delivery, or at the end of the run.
type mirrorCheck struct {
	t                          *testing.T
	name                       string
	nw                         *netsim.Network
	prev                       netsim.NodeID
	checked, centrals, vouched int
}

func (m *mirrorCheck) check(id netsim.NodeID) {
	if id == netsim.NoNode {
		return
	}
	nd := frodo.NodeOf(m.nw.Node(id).Endpoint())
	if nd == nil {
		return // retired since
	}
	central, running, nodeRunning := nd.BallotBits()
	if central != nd.IsCentral() || running != nodeRunning {
		m.t.Fatalf("%s: node %d at %v: ballot central=%v running=%v, Node central=%v running=%v",
			m.name, id, m.nw.Kernel().Now(), central, running, nd.IsCentral(), nodeRunning)
	}
	if bit, walk := nd.VouchBits(); bit != walk {
		m.t.Fatalf("%s: node %d at %v: vouched bit %v, but the renewal walk finds a record to renew: %v",
			m.name, id, m.nw.Kernel().Now(), bit, walk)
	} else if bit {
		m.vouched++
	}
	m.checked++
	if central {
		m.centrals++
	}
}

func (m *mirrorCheck) MessageDelivered(_ sim.Time, msg *netsim.Message) {
	m.check(m.prev)
	m.prev = msg.To
}
func (m *mirrorCheck) MessageSent(sim.Time, *netsim.Message)            {}
func (m *mirrorCheck) MessageDropped(sim.Time, *netsim.Message, string) {}
func (m *mirrorCheck) NodeEvent(sim.Time, netsim.NodeID, string)        {}
