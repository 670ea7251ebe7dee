package main

import (
	"bytes"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
)

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
