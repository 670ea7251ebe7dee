package hunt

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

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
	for _, d := range dispositions() {
		key := d.System + "/" + d.Invariant
		rows[key]++
		if d.Decision != "hardened" && d.Decision != "bounded" {
			t.Errorf("%s: unknown decision %q", key, d.Decision)
		}
		if d.Mechanism == "" {
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
