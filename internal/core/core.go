// Package core implements the paper's primary contribution: the
// classification of consistency-maintenance recovery techniques (Table 1)
// as composable mechanisms that the protocol models assemble.
//
// Subscription-recovery techniques apply while a subscription lease is
// still valid:
//
//   - SRC1 — acknowledged notifications retransmitted without limit
//     (critical updates).
//   - SRC2 — active monitoring of update sequence numbers; a receiver
//     that sees a gap requests the missed update (critical updates).
//   - SRN1 — acknowledged notifications retransmitted up to a limit
//     (non-critical updates).
//   - SRN2 — future retry: the Manager caches which Users missed the
//     update and retries when it next hears from them (FRODO only).
//
// Purge-rediscovery techniques apply after leases expire:
//
//   - PR1 — Manager and Registry rediscover each other; the Registry
//     notifies interested Users when the Manager (re-)registers.
//   - PR2 — User rediscovers the Registry and queries it.
//   - PR3 — Registry tells a purged User to resubscribe (or errors).
//   - PR4 — Manager tells a purged User to resubscribe.
//   - PR5 — User purges the Manager and rediscovers it by query or by
//     listening for announcements.
//
// The package also provides the shared machinery the techniques are built
// from: a retransmission engine, the SRN2 inconsistent-User cache, the
// SRC2 sequence monitor, and the periodic announcer.
package core

// TechniqueSet is a bitmask of enabled recovery techniques. The per-
// protocol defaults reproduce Table 2; flipping bits produces the paper's
// control experiments (Fig. 7 removes PR1 from FRODO) and further
// ablations.
type TechniqueSet uint16

const (
	SRC1 TechniqueSet = 1 << iota
	SRC2
	SRN1
	SRN2
	PR1
	PR2
	PR3
	PR4
	PR5
)

// Has reports whether every technique in q is enabled.
func (s TechniqueSet) Has(q TechniqueSet) bool { return s&q == q }

// Without returns the set with the given techniques removed.
func (s TechniqueSet) Without(q TechniqueSet) TechniqueSet { return s &^ q }

var techniqueNames = []struct {
	bit  TechniqueSet
	name string
}{
	{SRC1, "SRC1"}, {SRC2, "SRC2"}, {SRN1, "SRN1"}, {SRN2, "SRN2"},
	{PR1, "PR1"}, {PR2, "PR2"}, {PR3, "PR3"}, {PR4, "PR4"}, {PR5, "PR5"},
}

// String lists the enabled techniques, e.g. "SRN1|SRN2|PR1|PR3|PR5".
func (s TechniqueSet) String() string {
	if s == 0 {
		return "none"
	}
	out := ""
	for _, tn := range techniqueNames {
		if s.Has(tn.bit) {
			if out != "" {
				out += "|"
			}
			out += tn.name
		}
	}
	return out
}

// The Table 2 technique sets. UPnP and Jini's SRC1/SRN1 are TCP-dependent:
// their retransmission behaviour lives in the transport (netsim TCP), so
// the flags here record capability for reporting, while FRODO's flags
// actually drive the UDP retransmission engine.

// UPnPTechniques is UPnP's Table 2 row: TCP-backed SRC1/SRN1 plus PR4 and
// PR5.
func UPnPTechniques() TechniqueSet { return SRC1 | SRN1 | PR4 | PR5 }

// JiniTechniques is Jini's Table 2 row: TCP-backed SRC1/SRN1, SRC2, and
// PR1, PR2, PR3.
func JiniTechniques() TechniqueSet { return SRC1 | SRN1 | SRC2 | PR1 | PR2 | PR3 }

// FrodoThreePartyTechniques is FRODO's Table 2 row for 3-party
// subscription: PR1, PR3, PR5 (application dependent).
func FrodoThreePartyTechniques() TechniqueSet {
	return SRC1 | SRC2 | SRN1 | SRN2 | PR1 | PR3 | PR5
}

// FrodoTwoPartyTechniques is FRODO's Table 2 row for 2-party subscription:
// PR1, PR4, PR5 (application dependent).
func FrodoTwoPartyTechniques() TechniqueSet {
	return SRC1 | SRC2 | SRN1 | SRN2 | PR1 | PR4 | PR5
}
