package experiment

import (
	"repro/internal/discovery"
	"repro/internal/frodo"
	"repro/internal/jini"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/upnp"
)

// Every system is the same Registry / Manager / User role triple with
// different constructors. The harness sees the roles through these
// interfaces and never names a protocol package outside this file.

// rearmable is the replay surface shared by every protocol instance the
// rearm plan manages: reset to construction state, reschedule the boot,
// report the node slot.
type rearmable interface {
	Rearm()
	Start(sim.Duration)
	ID() netsim.NodeID
}

// manager is a Manager-role instance hosting one service.
type manager interface {
	rearmable
	ChangeService(mutate func(attrs map[string]string))
}

// user is a User-role instance.
type user interface {
	rearmable
	// Stop quiesces the instance so its node can be retired; it reports
	// false when the node cannot be detached (a FRODO 300D node currently
	// serving as Central or Backup).
	Stop() bool
	// EachCached visits the User's cached service records.
	EachCached(func(discovery.ServiceRecord))
}

// kit is one system's constructors, closed over the protocol
// configuration the options produce. Registry i is the ith
// Registry-capable node in descending election power; a kit is never
// asked for a Registry the topology does not have (UPnP has none).
type kit struct {
	registry func(n *netsim.Node, i int) rearmable
	manager  func(n *netsim.Node, sd discovery.ServiceDescription) manager
	user     func(n *netsim.Node, q discovery.Query, l discovery.ConsistencyListener) user
}

// The adapters are single-pointer structs, so boxing one into its role
// interface allocates nothing.

type upnpUser struct{ *upnp.User }

func (u upnpUser) Stop() bool { u.User.Stop(); return true }

type jiniUser struct{ *jini.User }

func (u jiniUser) Stop() bool { u.User.Stop(); return true }

type frodoUser struct{ *frodo.Node }

func (u frodoUser) Stop() bool { return u.Detach() }

func (u frodoUser) EachCached(fn func(discovery.ServiceRecord)) { u.User().EachCached(fn) }

type frodoManager struct{ *frodo.Node }

func (m frodoManager) ChangeService(mutate func(map[string]string)) {
	m.Manager().ChangeService(mutate)
}

// newKit resolves a system's configuration — defaults, then the options'
// mutator hook, then the hardening layer — and returns its constructors.
// This is the only place a mutator or hardening is applied, for every
// scenario. Hardening only marks the configuration Hardened: each
// protocol derives its bounded transport or capped retry schedules from
// that flag. It runs once per cold build on identical defaults, so
// mutators must be deterministic — the contract workspace reuse already
// sets.
func newKit(sys System, opts Options) kit {
	switch sys {
	case UPnP:
		cfg := upnp.DefaultConfig()
		if opts.UPnP != nil {
			opts.UPnP(&cfg)
		}
		if opts.Hardened {
			cfg.Hardened = true
		}
		return kit{
			manager: func(n *netsim.Node, sd discovery.ServiceDescription) manager {
				return upnp.NewManager(n, cfg, sd)
			},
			user: func(n *netsim.Node, q discovery.Query, l discovery.ConsistencyListener) user {
				return upnpUser{upnp.NewUser(n, cfg, q, l)}
			},
		}

	case Jini1, Jini2:
		cfg := jini.DefaultConfig()
		if opts.Jini != nil {
			opts.Jini(&cfg)
		}
		if opts.Hardened {
			cfg.Hardened = true
		}
		return kit{
			registry: func(n *netsim.Node, _ int) rearmable { return jini.NewRegistry(n, cfg) },
			manager: func(n *netsim.Node, sd discovery.ServiceDescription) manager {
				return jini.NewManager(n, cfg, sd)
			},
			user: func(n *netsim.Node, q discovery.Query, l discovery.ConsistencyListener) user {
				return jiniUser{jini.NewUser(n, cfg, q, l)}
			},
		}

	case Frodo3P, Frodo2P:
		cfg := frodo.DefaultConfig()
		mgrClass, userClass := frodo.Class3D, frodo.Class3D
		if sys == Frodo2P {
			cfg = frodo.TwoPartyConfig()
			mgrClass, userClass = frodo.Class300D, frodo.Class300D
		}
		if opts.Frodo != nil {
			opts.Frodo(&cfg)
		}
		if opts.Hardened {
			cfg.Hardened = true
		}
		fleet := frodo.NewFleet(cfg)
		return kit{
			registry: func(n *netsim.Node, i int) rearmable {
				return fleet.NewNode(n, frodo.Class300D, registryPower(i))
			},
			manager: func(n *netsim.Node, sd discovery.ServiceDescription) manager {
				mn := fleet.NewNode(n, mgrClass, 5)
				mn.AttachManager(sd)
				return frodoManager{mn}
			},
			user: func(n *netsim.Node, q discovery.Query, l discovery.ConsistencyListener) user {
				un := fleet.NewNode(n, userClass, 1)
				un.AttachUser(q, l)
				return frodoUser{un}
			},
		}

	default:
		panic("experiment: unknown system")
	}
}
