package hunt

import (
	"path/filepath"
	"testing"
)

// Every committed fixture must replay its recorded outcome — a hunted
// violation or a pinned clean floor — from the file alone: the spec
// carries its seed, the oracle runs at default tolerances, and any
// drift in simulator, protocols or oracle shows up here as a diff
// against a known timeline.
func TestReplayCommittedFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed fixtures under testdata/ — the hunted corpus is gone")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			fx, err := LoadFixture(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, _, err := Replay(fx)
			if err != nil {
				t.Fatalf("%v\nfull report: %s", err, rep)
			}
		})
	}
}
