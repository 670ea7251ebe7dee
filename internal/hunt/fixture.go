package hunt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/verify"
)

// A fixture is a hunted scenario frozen into the repository: the
// minimized spec, the system it runs on, and what replaying it must
// observe. Replay needs nothing but the file — the spec carries its
// seed, so the violation (or the documented clean outcome) reproduces
// bit-for-bit under the default oracle tolerances.

// Expect states the replay obligation. Exactly one form is valid:
// Clean (a regression fixture pinning a hostile-but-correct scenario),
// or Invariant with a minimum violation count.
type Expect struct {
	Clean     bool   `json:"clean,omitempty"`
	Invariant string `json:"invariant,omitempty"`
	MinCount  int    `json:"min_count,omitempty"`
}

// Fixture is the committable unit under internal/hunt/testdata.
type Fixture struct {
	Comment  string                  `json:"comment,omitempty"`
	System   string                  `json:"system"`
	Scenario experiment.ScenarioSpec `json:"scenario"`
	Expect   Expect                  `json:"expect"`
}

// Validate checks the envelope; the embedded scenario validates with
// the spec codec's own rules.
func (f *Fixture) Validate() error {
	sys, err := experiment.ParseSystem(f.System)
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	if f.Expect.Clean == (f.Expect.Invariant != "") {
		return fmt.Errorf("fixture: expect must set exactly one of clean or invariant")
	}
	if f.Expect.Invariant != "" {
		if _, ok := parseInvariant(f.Expect.Invariant); !ok {
			return fmt.Errorf("fixture: unknown invariant %q", f.Expect.Invariant)
		}
	}
	if f.Expect.MinCount < 0 {
		return fmt.Errorf("fixture: expect.min_count must not be negative")
	}
	if err := f.Scenario.Validate(); err != nil {
		return err
	}
	return f.Scenario.Params().CheckOutages(sys)
}

func parseInvariant(name string) (verify.Invariant, bool) {
	for inv := verify.Invariant(0); inv.String() != "?"; inv++ {
		if inv.String() == name {
			return inv, true
		}
	}
	return 0, false
}

// Encode renders the fixture as committable indented JSON.
func (f *Fixture) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Load reads one scenario file strictly, in either form: a bare
// ScenarioSpec, or a Fixture, which yields its scenario. fx is nil for
// a bare spec. This is the one loader behind every -scenario flag.
func Load(path string) (spec *experiment.ScenarioSpec, fx *Fixture, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	// One strict pass over the union of both forms' fields: a key that
	// belongs to neither is an error, and the fixture keys present tell
	// the forms apart.
	var doc struct {
		experiment.ScenarioSpec
		Fixture
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if reflect.DeepEqual(doc.Fixture, Fixture{}) {
		spec, err = experiment.ParseSpec(bytes.NewReader(data)) // the spec codec itself
	} else if !reflect.DeepEqual(doc.ScenarioSpec, experiment.ScenarioSpec{}) {
		err = fmt.Errorf("fixture: its design belongs under \"scenario\"")
	} else {
		spec, fx, err = &doc.Fixture.Scenario, &doc.Fixture, doc.Fixture.Validate()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, fx, nil
}

// LoadFixture reads one fixture through Load; a bare spec is an error.
func LoadFixture(path string) (*Fixture, error) {
	_, fx, err := Load(path)
	if err == nil && fx == nil {
		err = fmt.Errorf("%s: a bare scenario spec, not a fixture", path)
	}
	return fx, err
}

// LoadCorpus reads every *.json file under dir through Load, in sorted
// order, and returns their specs; a fixture contributes its scenario.
// The hunter mutates a corpus spec for any system, so its outages must
// name roles all five systems have.
func LoadCorpus(dir string) ([]*experiment.ScenarioSpec, error) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.json")) // errs only on a bad pattern
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenario files under %s", dir)
	}
	specs := make([]*experiment.ScenarioSpec, len(paths))
	for i, path := range paths {
		spec, _, err := Load(path)
		if err != nil {
			return nil, err
		}
		for _, sys := range experiment.Systems() {
			if err := spec.Params().CheckOutages(sys); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		specs[i] = spec
	}
	return specs, nil
}

// Replay runs the fixture under the default oracle tolerances with a
// flight recorder riding along, and checks its expectation. It returns
// the report and the recorder's ring — frozen at the oracle's first
// violation, so it holds the lead-up, not the aftermath — either way,
// so a failing replay can be diagnosed from what it did produce.
func Replay(f *Fixture) (verify.OracleReport, obs.FlightSnapshot, error) {
	sys, err := experiment.ParseSystem(f.System)
	if err != nil {
		return verify.OracleReport{}, obs.FlightSnapshot{}, err
	}
	spec := f.Scenario.RunSpec(sys)
	fr := obs.NewFlightRecorder(obs.DefaultFlightSize)
	spec.Attach = func(sc *experiment.Scenario) { sc.AddTracer(fr) }
	cfg := verify.DefaultOracleConfig(sys)
	cfg.OnViolation = func(v verify.OracleViolation) { fr.Freeze(v.String()) }
	rep, _ := verify.ObserveRun(spec, cfg)
	return rep, fr.Snapshot(), checkExpect(f, rep)
}

func checkExpect(f *Fixture, rep verify.OracleReport) error {
	if f.Expect.Clean {
		if rep.Total != 0 {
			return fmt.Errorf("fixture expects a clean run, got %s", rep)
		}
		return nil
	}
	inv, _ := parseInvariant(f.Expect.Invariant)
	min := f.Expect.MinCount
	if min == 0 {
		min = 1
	}
	if got := rep.ByInvariant[inv]; got < min {
		return fmt.Errorf("fixture expects ≥%d %s violations, got %d (%s)",
			min, f.Expect.Invariant, got, rep)
	}
	return nil
}
