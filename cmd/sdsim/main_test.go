package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// A traced run streams every frame and interface transition as obs
// trace records: at λ=0.2 every node fails once, so drops appear next
// to sends and deliveries.
func TestRunTraced(t *testing.T) {
	var buf bytes.Buffer
	res, _, err := run(experiment.RunSpec{
		System: experiment.UPnP, Lambda: 0.2, Seed: 4, Params: experiment.DefaultParams(),
	}, false, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Effort == 0 {
		t.Error("traced run reported zero effort")
	}
	ops := map[string]int{}
	announces := 0
	dec := json.NewDecoder(&buf)
	for {
		var ev obs.TraceEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		ops[ev.Op]++
		if ev.Op == obs.OpSent && ev.Kind == "Announce" {
			announces++
		}
	}
	if ops[obs.OpSent] == 0 || ops[obs.OpDelivered] == 0 || ops[obs.OpDropped] == 0 || ops[obs.OpNode] == 0 {
		t.Errorf("trace incomplete: %v", ops)
	}
	if announces == 0 {
		t.Error("announcements missing from trace")
	}
}

// -trace and -log together print the event log beside the trace: the
// same log a run without -trace prints.
func TestTraceKeepsLog(t *testing.T) {
	args := []string{"-system", "upnp", "-lambda", "0.2", "-seed", "4", "-log"}
	var plain, traced bytes.Buffer
	if code := sdsim(args, &plain); code != 0 {
		t.Fatalf("sdsim %v exited %d", args, code)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if code := sdsim(append(args, "-trace", path), &traced); code != 0 {
		t.Fatalf("sdsim -trace exited %d", code)
	}
	if !strings.Contains(plain.String(), " node ") {
		t.Fatalf("the plain log holds no interface transition:\n%s", plain.String())
	}
	want := "trace written to " + path + "\n" + plain.String()
	if traced.String() != want {
		t.Errorf("sdsim -trace -log printed\n%s\nwant\n%s", traced.String(), want)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("trace file %s: %v, %v", path, st, err)
	}
}
