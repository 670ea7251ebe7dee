package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The guarantee grid's report is pinned by a golden file under testdata
// for each of the plain, hardened and -violations runs; the
// -violations golden carries every flagged cell's replay spec. Each
// golden is `sdverify <args>` recorded from the sequential grid loop the
// parallel spec list replaced; regenerate one only for a deliberate
// change of the grid's output.
func TestGridMatchesGoldens(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"sdverify", nil},
		{"sdverify-harden", []string{"-harden"}},
		{"sdverify-violations", []string{"-violations"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := run(c.args, &out); code != 0 {
			t.Fatalf("sdverify %s: exit %d", strings.Join(c.args, " "), code)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("sdverify %s: stdout differs from testdata/%s.golden:\n%s", strings.Join(c.args, " "), c.file, out.Bytes())
		}
	}
}
