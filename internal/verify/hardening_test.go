package verify

import (
	"strconv"
	"testing"

	"repro/internal/experiment"
)

// One hostile run per mode per system is enough to pin the figure's
// structural guarantees: every system appears, the column layout is
// stable, the progress callback sees every job exactly once, and — the
// property the whole PR leans on — m′ is byte-identical across modes,
// because a disabled-then-enabled hardening layer must not tax the
// fault-free path (λ=0 draws no extra RNG, sends no extra frames).
func TestFigureHardeningShapeAndFaultFreeParity(t *testing.T) {
	var calls, lastDone, lastTotal int
	p := experiment.DefaultParams()
	p.Runs = 1
	tbl := FigureHardening(p, 8, func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	})

	systems := experiment.Systems()
	if len(tbl.Rows) != len(systems) {
		t.Fatalf("rows = %d, want one per system (%d)", len(tbl.Rows), len(systems))
	}
	if len(tbl.Header) != 11 {
		t.Fatalf("header has %d columns, want 11: %v", len(tbl.Header), tbl.Header)
	}
	// Jobs per system: 1 m′ + 1 hostile run, in each of the two modes.
	wantJobs := len(systems) * 2 * 2
	if calls != wantJobs || lastDone != wantJobs || lastTotal != wantJobs {
		t.Errorf("progress saw %d calls (last %d/%d), want %d jobs", calls, lastDone, lastTotal, wantJobs)
	}

	for i, row := range tbl.Rows {
		if row[0] != systems[i].Short() {
			t.Errorf("row %d system = %q, want %q", i, row[0], systems[i].Short())
		}
		if row[1] != row[2] {
			t.Errorf("%s: m' %s != hardened m' %s — hardening taxed the fault-free path", row[0], row[1], row[2])
		}
		mprime, err := strconv.Atoi(row[1])
		if err != nil || mprime <= 0 {
			t.Errorf("%s: m' = %q, want a positive count", row[0], row[1])
		}
		for col, v := range row[1:] {
			if v == "" || v == "n/a" {
				t.Errorf("%s: column %q empty (%q) — hostile runs produced no users?", row[0], tbl.Header[col+1], v)
			}
		}
	}
}
