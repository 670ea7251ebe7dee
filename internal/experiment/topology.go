package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Topology parameterizes the scenario shape. The zero value reproduces
// the paper's Table 4 design exactly (per-system Registry counts, one
// Manager with the printer service, 5 Users, 1s boot slots),
// so every existing experiment is the fixed point of this generator.
//
// Managers beyond the first host background services: the measured
// printer stays on Manager 0 and the Update Metrics are still taken
// against it, while the extra Managers load the Registries and the
// multicast medium the way a populated network would.
type Topology struct {
	// Users is N, the number of Users discovering the printer. 0 means
	// the paper's 5.
	Users int
	// Managers is the number of Manager nodes, each hosting one service.
	// Manager 0 hosts the measured printer; 0 means 1.
	Managers int
	// Registries is the number of Registry nodes. 0 means the system
	// default: none for UPnP, 1 for Jini1, 2 for Jini2, 1 Central for
	// FRODO 3-party, Central+Backup for FRODO 2-party. UPnP has no
	// Registry role, so the value is forced to 0 there. For FRODO the
	// nodes are 300D Registry-capable devices in descending election
	// power; the strongest wins the Central election and appoints the
	// next as Backup.
	Registries int
	// Services is the number of distinct background service types spread
	// round-robin over Managers 1..Managers−1. 0 means one type per
	// background Manager; fewer types than background Managers makes the
	// surplus Managers replicas of existing types.
	Services int
	// BootSpacing separates consecutive infrastructure boots (Registries,
	// then Managers), one slot each. 0 means the paper's 1s.
	BootSpacing sim.Duration
	// UserBootSpacing separates consecutive User boots after the
	// infrastructure. 0 means 1s up to 60 Users, and 60s/Users beyond
	// that so even huge populations finish booting inside the first
	// failure-free 100s.
	UserBootSpacing sim.Duration
	// BootJitter is the uniform per-node jitter added to every boot slot.
	// 0 means the paper's 1s.
	BootJitter sim.Duration
}

// DefaultRegistries reports the Table 4 Registry count for a system.
func DefaultRegistries(sys System) int {
	switch sys {
	case UPnP:
		return 0
	case Jini1:
		return 1
	case Jini2:
		return 2
	case Frodo3P:
		return 1
	case Frodo2P:
		return 2 // Central plus Backup
	default:
		panic("experiment: unknown system")
	}
}

// Validate checks a flag-assembled Topology for the mistakes
// normalized() would otherwise silently paper over, so command-line
// tools (sdsweep, sdlived) can reject them with a friendly message
// instead of surprising the user with defaults — or panicking later,
// deep inside scenario construction. Zero means "use the default"
// throughout and is always valid; negative counts and a -services
// count exceeding the background Managers that could host them are
// errors.
func (t Topology) Validate() error {
	switch {
	case t.Users < 0:
		return fmt.Errorf("topology: -users must not be negative, got %d (0 means the default)", t.Users)
	case t.Managers < 0:
		return fmt.Errorf("topology: -managers must not be negative, got %d (0 means the default)", t.Managers)
	case t.Registries < 0:
		return fmt.Errorf("topology: -registries must not be negative, got %d (0 means the default)", t.Registries)
	case t.Services < 0:
		return fmt.Errorf("topology: -services must not be negative, got %d (0 means the default)", t.Services)
	}
	if t.Services > 0 {
		managers := t.Managers
		if managers <= 0 {
			managers = 1
		}
		if t.Services > managers-1 {
			return fmt.Errorf("topology: %d background service types need at least %d managers (Manager 0 hosts the measured printer; pass -managers ≥ %d)",
				t.Services, t.Services+1, t.Services+1)
		}
	}
	if t.BootSpacing < 0 || t.UserBootSpacing < 0 || t.BootJitter < 0 {
		return fmt.Errorf("topology: boot spacings must not be negative")
	}
	return nil
}

// role parses a role name and checks that the normalized topology has
// it on sys.
func (t Topology) role(sys System, role string) (kind string, i int, err error) {
	kind, i, err = parseRole(role)
	if err == nil && (kind == "user" && i >= t.Users || kind == "registry" && i >= t.Registries) {
		err = fmt.Errorf("%v has %d Users and %d Registries, no %s", sys, t.Users, t.Registries, role)
	}
	return kind, i, err
}

// parseRole splits a role name — "manager", "user:<i>" or
// "registry:<i>", i a plain decimal — into its kind and index.
func parseRole(role string) (kind string, i int, err error) {
	kind, num, _ := strings.Cut(role, ":")
	i, err = strconv.Atoi(num)
	if role != "manager" && (kind != "user" && kind != "registry" || err != nil || i < 0 || strconv.Itoa(i) != num) {
		return "", 0, fmt.Errorf("role %q is not manager, user:<i> or registry:<i>", role)
	}
	return kind, i, nil
}

// paperUsers is the paper's population N (Table 4).
const paperUsers = 5

// normalized resolves all defaults against a system.
func (t Topology) normalized(sys System) Topology {
	if t.Users <= 0 {
		t.Users = paperUsers
	}
	if t.Managers <= 0 {
		t.Managers = 1
	}
	if t.Registries <= 0 {
		t.Registries = DefaultRegistries(sys)
	}
	if sys == UPnP {
		t.Registries = 0 // UPnP is peer-to-peer; there is no Registry role.
	}
	background := t.Managers - 1
	if t.Services <= 0 || t.Services > background {
		t.Services = background
	}
	if t.BootSpacing <= 0 {
		t.BootSpacing = sim.Second
	}
	if t.UserBootSpacing <= 0 {
		if t.Users <= 60 {
			t.UserBootSpacing = sim.Second
		} else {
			t.UserBootSpacing = 60 * sim.Second / sim.Duration(t.Users)
		}
	}
	if t.BootJitter <= 0 {
		t.BootJitter = sim.Second
	}
	return t
}

// Nodes reports how many nodes the normalized topology builds at boot
// (churn arrivals come on top).
func (t Topology) Nodes() int { return t.Registries + t.Managers + t.Users }

// numbered returns prefix followed by n in decimal, in one allocation: a
// node label is built for every node of every cold build and only logs
// read it.
func numbered(prefix string, n int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10))
}

func userName(i int) string { return numbered("User", i+1) }

func managerName(j int) string {
	if j == 0 {
		return "Manager"
	}
	return numbered("Manager", j+1)
}

func registryName(sys System, i int) string {
	if i == 0 {
		return "Registry"
	}
	if sys == Frodo2P && i == 1 {
		return "Backup"
	}
	return numbered("Registry", i+1)
}

// registryPower orders FRODO 300D Registry-capable nodes for the Central
// election: the paper's Central (100) and Backup (50), then weaker spares.
func registryPower(i int) int {
	switch {
	case i == 0:
		return 100
	case 50-10*(i-1) > 10:
		return 50 - 10*(i-1)
	default:
		return 10
	}
}
