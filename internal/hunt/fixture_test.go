package hunt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func writeFixture(t *testing.T, f *Fixture) string {
	t.Helper()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fixture.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFixtureRoundTripAndReplayClean(t *testing.T) {
	f := &Fixture{
		Comment:  "paper design, no faults: must audit clean",
		System:   "upnp",
		Scenario: experiment.ScenarioSpec{Seed: 5},
		Expect:   Expect{Clean: true},
	}
	back, err := LoadFixture(writeFixture(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if back.System != "upnp" || back.Scenario.Seed != 5 || !back.Expect.Clean {
		t.Errorf("round trip lost fields: %+v", back)
	}
	rep, _, err := Replay(back)
	if err != nil {
		t.Errorf("clean fixture failed replay: %v", err)
	}
	if rep.Total != 0 {
		t.Errorf("unexpected violations: %s", rep)
	}

	// A violation expectation the run does not meet must fail replay.
	f.Expect = Expect{Invariant: "lease-purge"}
	if _, _, err := Replay(f); err == nil || !strings.Contains(err.Error(), "lease-purge") {
		t.Errorf("unmet violation expectation not reported: %v", err)
	}
}

func TestFixtureValidation(t *testing.T) {
	base := func() *Fixture {
		return &Fixture{System: "upnp", Scenario: experiment.ScenarioSpec{Seed: 1},
			Expect: Expect{Clean: true}}
	}
	cases := []struct {
		name   string
		break_ func(*Fixture)
		want   string
	}{
		{"system", func(f *Fixture) { f.System = "bonjour" }, "unknown system"},
		{"both", func(f *Fixture) { f.Expect.Invariant = "lease-purge" }, "exactly one"},
		{"neither", func(f *Fixture) { f.Expect.Clean = false }, "exactly one"},
		{"invariant", func(f *Fixture) { f.Expect = Expect{Invariant: "lease-prune"} }, "unknown invariant"},
		{"count", func(f *Fixture) { f.Expect = Expect{Invariant: "lease-purge", MinCount: -1} }, "min_count"},
		{"scenario", func(f *Fixture) { f.Scenario.Lambda = 7 }, "lambda"},
	}
	for _, c := range cases {
		f := base()
		c.break_(f)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}

	// Strict load: an unknown field inside the embedded scenario fails.
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := `{"system": "upnp", "scenario": {"seed": 1, "lamda": 0.2}, "expect": {"clean": true}}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFixture(path); err == nil || !strings.Contains(err.Error(), "lamda") {
		t.Errorf("unknown nested field not rejected: %v", err)
	}
}

// Load reads both scenario forms strictly: a bare spec, or a fixture
// read through to its scenario. Anything else fails by name.
func TestLoadReadsSpecOrFixture(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "scenario.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec, fx, err := Load(write(`{"seed": 3, "lambda": 0.2}`))
	if err != nil || fx != nil || spec.Seed != 3 || spec.Lambda != 0.2 {
		t.Errorf("bare spec: %+v, fixture %v, err %v", spec, fx, err)
	}
	spec, fx, err = Load("testdata/hunted-frodo2p-lease-purge.json")
	if err != nil || fx == nil || fx.System != "frodo2p" || spec != &fx.Scenario || spec.Seed != 2 {
		t.Errorf("fixture: %+v, fixture %+v, err %v", spec, fx, err)
	}
	for _, tc := range []struct{ name, body, want string }{
		{"spec typo", `{"seed": 1, "lamda": 0.3}`, "lamda"},
		{"invalid spec", `{"seed": 1, "lambda": 3}`, "lambda"},
		{"fixture typo", `{"system": "upnp", "scenario": {"seed": 1}, "expect": {"clean": true}, "note": "x"}`, "note"},
		{"invalid fixture", `{"system": "bonjour", "scenario": {"seed": 1}, "expect": {"clean": true}}`, "unknown system"},
		{"scenario without envelope", `{"scenario": {"seed": 1}}`, "unknown system"},
		{"mixed forms", `{"seed": 1, "system": "upnp", "scenario": {"seed": 1}, "expect": {"clean": true}}`, `belongs under "scenario"`},
	} {
		if _, _, err := Load(write(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := LoadFixture(write(`{"seed": 1}`)); err == nil || !strings.Contains(err.Error(), "not a fixture") {
		t.Errorf("LoadFixture on a bare spec: %v", err)
	}

	// A corpus directory may hold either form.
	files, _ := filepath.Glob("testdata/*.json")
	specs, err := LoadCorpus("testdata")
	if err != nil || len(specs) != len(files) {
		t.Fatalf("LoadCorpus(testdata) = %d specs, %v", len(specs), err)
	}
	if _, err := LoadCorpus(t.TempDir()); err == nil {
		t.Error("an empty corpus directory loaded")
	}
}
