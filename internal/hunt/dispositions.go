package hunt

// Disposition records the decision for one hunted finding: either the
// protocol was hardened (Mechanism names the fix) or the invariant was
// weakened to a fault-conditional bound (Mechanism names the bound).
type Disposition struct {
	System    string // hunted system (sweep name)
	Invariant string // oracle invariant that fired
	Decision  string // "hardened" or "bounded"
	Mechanism string // what closes or bounds the finding
}

// dispositions is the per-finding decision table for the committed
// hunted-* fixtures under testdata, one row per (system, invariant).
// Every finding proved fixable at the protocol layer; no invariant needed
// a fault-conditional bound.
func dispositions() []Disposition {
	return []Disposition{
		{"upnp", "lease-purge", "hardened",
			"bounded TCP data retransmission (8 tries, 60s RTO cap): stale RenewAcks can no longer arrive hours late"},
		{"jini1", "lease-purge", "hardened",
			"bounded TCP data retransmission + strict renew + no silent onUpdate repository heal (Registry answers RenewError; Manager re-registers on the wire)"},
		{"jini2", "lease-purge", "hardened",
			"same as jini1; both Registries enforce strict leases"},
		{"jini2", "retired-silence", "hardened",
			"retire-aware transport (SYN/data sends abort once the sender retired) + best-effort Bye on User stop"},
		{"frodo3p", "lease-purge", "hardened",
			"strict renew at the Central + backup-seeded registrations held provisional until the Manager re-registers"},
		{"frodo2p", "lease-purge", "hardened",
			"strict renew at 300D Managers and the Central; renewals after expiry answered with RenewError, re-registration follows"},
		{"frodo2p", "single-central", "hardened",
			"demoted Central retracts its claim with Bye; sitting Central reasserts against weaker claims; announcements pause while either own interface is down; election re-arms with decorrelated backoff"},
	}
}
