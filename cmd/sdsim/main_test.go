package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
)

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		system       string
		lambda, loss float64
		want         string // error substring; "" = accepted
	}{
		{"frodo2p", 0.15, 0, ""},
		{"upnp", 0, 1, ""},
		{"jini2", 1, 0.5, ""},
		{"nope", 0.15, 0, "nope"},
		{"frodo2p", 2, 0, "-lambda 2 out of [0,1]"},
		{"frodo2p", -1, 0, "-lambda -1 out of [0,1]"},
		{"frodo2p", 0.15, 1.5, "-loss: netsim: loss 1.5 out of [0,1]"},
		{"frodo2p", 0.15, -0.1, "-loss"},
	} {
		_, err := check(tc.system, tc.lambda, tc.loss)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("check(%q, %v, %v) = %v, want accepted", tc.system, tc.lambda, tc.loss, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("check(%q, %v, %v) = %v, want an error naming %q", tc.system, tc.lambda, tc.loss, err, tc.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("check(%q, %v, %v): error spans lines: %q", tc.system, tc.lambda, tc.loss, err)
		}
	}
}

// A traced run streams every frame and interface transition: at λ=0.2
// every node fails once, so drops appear next to sends and deliveries.
func TestRunTraced(t *testing.T) {
	var buf bytes.Buffer
	res, err := runTraced(experiment.RunSpec{
		System: experiment.UPnP, Lambda: 0.2, Seed: 4, Params: experiment.DefaultParams(),
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Effort == 0 {
		t.Error("traced run reported zero effort")
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(events)
	if sum.Sends == 0 || sum.Delivered == 0 || sum.Drops == 0 {
		t.Errorf("trace summary incomplete: %+v", sum)
	}
	if sum.PerKind["Announce"] == 0 {
		t.Error("announcements missing from trace")
	}
}
