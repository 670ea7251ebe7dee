// Package experiment reproduces the paper's experimental design (§5): it
// builds the five simulated systems, injects interface failures at rates
// λ = 0.00 … 0.90, runs the 5400s scenario X times per point on a
// parallel worker pool, and aggregates the Update Metrics into the
// figures and tables of §6.
package experiment

import "fmt"

// System identifies one of the five simulated systems (§5).
type System int

const (
	// UPnP is the peer-to-peer model: 1 Manager, 5 Users.
	UPnP System = iota
	// Jini1 is Jini with a single Registry.
	Jini1
	// Jini2 is Jini with two Registries.
	Jini2
	// Frodo3P is FRODO with 3-party subscription: one 300D node as the
	// Registry, a 3D Manager and 3D Users.
	Frodo3P
	// Frodo2P is FRODO with 2-party subscription: all-300D nodes, a
	// single Registry plus a Backup.
	Frodo2P
)

// Systems lists all five in the paper's presentation order.
func Systems() []System { return []System{UPnP, Jini1, Jini2, Frodo3P, Frodo2P} }

func (s System) String() string {
	switch s {
	case UPnP:
		return "UPnP"
	case Jini1:
		return "Jini with 1 Registry"
	case Jini2:
		return "Jini with 2 Registries"
	case Frodo3P:
		return "FRODO with 3-party subscription"
	case Frodo2P:
		return "FRODO with 2-party subscription"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Short returns the compact label used in CSV headers.
func (s System) Short() string {
	switch s {
	case UPnP:
		return "upnp"
	case Jini1:
		return "jini1"
	case Jini2:
		return "jini2"
	case Frodo3P:
		return "frodo3p"
	case Frodo2P:
		return "frodo2p"
	default:
		return "unknown"
	}
}

// ParseSystem resolves a short label.
func ParseSystem(s string) (System, error) {
	for _, sys := range Systems() {
		if sys.Short() == s {
			return sys, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown system %q (want upnp|jini1|jini2|frodo3p|frodo2p)", s)
}

// paper holds the paper's numbers per system: Table 2's zero-failure
// update count m′ (the Fig. 6 legend) and its formula, and Table 5's
// averages of R, F and G across failure rates 0–90%.
var paper = map[System]struct {
	mPrime  int
	formula string
	rfg     [3]float64
}{
	UPnP:    {15, "3N without TCP messages", [3]float64{0.553, 0.922, 0.385}},
	Jini1:   {7, "N+2 without TCP messages", [3]float64{0.474, 0.802, 0.311}},
	Jini2:   {14, "2(N+2) without TCP messages", [3]float64{0.476, 0.825, 0.361}},
	Frodo3P: {7, "N+2", [3]float64{0.580, 0.878, 0.428}},
	Frodo2P: {7, "N+2", [3]float64{0.666, 0.861, 0.429}},
}

// PaperMPrime returns the m′ the paper reports for each system (Fig. 6
// legend); the harness also measures m′ from zero-failure runs and the
// integration tests assert both agree.
func PaperMPrime(s System) int { return paper[s].mPrime }
