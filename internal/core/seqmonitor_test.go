package core

import "testing"

func TestSeqMonitorGapDetection(t *testing.T) {
	var m SeqMonitor
	if gap, _ := m.Observe(3); gap {
		t.Error("first observation flagged a gap")
	}
	if gap, _ := m.Observe(4); gap {
		t.Error("consecutive sequence flagged")
	}
	gap, after := m.Observe(7)
	if !gap || after != 4 {
		t.Errorf("Observe(7) = %v,%d; want gap after 4", gap, after)
	}
	if m.last != 7 {
		t.Errorf("last = %d", m.last)
	}
	// Duplicate/late arrivals are not gaps.
	if gap, _ := m.Observe(6); gap {
		t.Error("late arrival flagged as gap")
	}
	m.Reset()
	if gap, _ := m.Observe(9); gap {
		t.Error("gap flagged after Reset baseline")
	}
}
