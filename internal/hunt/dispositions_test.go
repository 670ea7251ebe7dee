package hunt

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// dispositions is the decision for each committed hunted-* fixture under
// testdata, one row per (system, invariant): either the protocol was
// hardened (mechanism names the fix) or the invariant was weakened to a
// fault-conditional bound (mechanism names the bound). Every finding
// proved fixable at the protocol layer; no invariant needed a bound.
var dispositions = []struct{ system, invariant, decision, mechanism string }{
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

// Every committed hunted-* fixture is a finding: its (system, invariant)
// pair needs exactly one disposition row, and the fixture exactly one
// hardened-* twin — the same scenario with hardened: true, expected
// clean. Rows without a fixture and twins without a finding fail too.
func TestDispositionsCoverTheHuntedFindings(t *testing.T) {
	hunted, err := filepath.Glob(filepath.Join("testdata", "hunted-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	twins, err := filepath.Glob(filepath.Join("testdata", "hardened-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hunted) == 0 {
		t.Fatal("no hunted-* fixtures under testdata/")
	}
	if len(twins) != len(hunted) {
		t.Errorf("%d hardened-* fixtures for %d hunted-* ones, want one twin each", len(twins), len(hunted))
	}

	rows := map[string]int{}
	for _, d := range dispositions {
		key := d.system + "/" + d.invariant
		rows[key]++
		if d.decision != "hardened" && d.decision != "bounded" {
			t.Errorf("%s: unknown decision %q", key, d.decision)
		}
		if d.mechanism == "" {
			t.Errorf("%s: empty mechanism", key)
		}
	}

	findings := map[string]bool{}
	for _, path := range hunted {
		fx, err := LoadFixture(path)
		if err != nil {
			t.Fatal(err)
		}
		key := fx.System + "/" + fx.Expect.Invariant
		findings[key] = true
		if n := rows[key]; n != 1 {
			t.Errorf("%s: %d disposition rows for %s, want exactly one", path, n, key)
		}

		twinPath := filepath.Join("testdata", "hardened-"+strings.TrimPrefix(filepath.Base(path), "hunted-"))
		twin, err := LoadFixture(twinPath)
		if err != nil {
			t.Errorf("%s has no hardened twin: %v", path, err)
			continue
		}
		want := fx.Scenario
		want.Hardened = true
		if twin.System != fx.System || !reflect.DeepEqual(twin.Scenario, want) || !twin.Expect.Clean {
			t.Errorf("%s is not %s hardened and expected clean", twinPath, path)
		}
	}
	for key := range rows {
		if !findings[key] {
			t.Errorf("disposition row %s matches no hunted fixture", key)
		}
	}
}
