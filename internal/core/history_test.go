package core

import (
	"testing"

	"repro/internal/discovery"
)

func rec(v uint64) discovery.ServiceRecord {
	return discovery.ServiceRecord{Manager: 1, SD: discovery.ServiceDescription{
		DeviceType: "Printer", ServiceType: "ColorPrinter",
		Attributes: map[string]string{"v": "x"}, Version: v}.Freeze()}
}

func TestUpdateHistoryPurgeAfterAllConfirm(t *testing.T) {
	// "only purges the cached updates after all interested Users
	// successfully obtained the complete view of the service"
	h := NewUpdateHistory()
	h.Interested(10)
	h.Interested(11)
	h.Record(rec(1))
	h.Record(rec(2))
	h.Confirm(10, 2)
	if h.Len() != 2 {
		t.Fatalf("purged while user 11 unconfirmed: len=%d", h.Len())
	}
	h.Confirm(11, 1)
	if h.Len() != 1 {
		t.Fatalf("entries <=1 should purge: len=%d", h.Len())
	}
	h.Confirm(11, 2)
	if h.Len() != 0 {
		t.Fatalf("all confirmed, len=%d", h.Len())
	}
}

func TestUpdateHistoryDisinterestedUnblocks(t *testing.T) {
	h := NewUpdateHistory()
	h.Interested(10)
	h.Interested(11)
	h.Record(rec(1))
	h.Confirm(10, 1)
	if h.Len() != 1 {
		t.Fatal("purged early")
	}
	h.Disinterested(11)
	if h.Len() != 0 {
		t.Error("departed user still blocks purging")
	}
}

func TestUpdateHistorySharesImmutableSnapshots(t *testing.T) {
	// The history shares the immutable snapshot by reference: nothing the
	// caller can do to its own builder affects a recorded entry, and a
	// described copy of an entry is independent storage.
	h := NewUpdateHistory()
	r := rec(1)
	h.Record(r)
	if h.entries[0].SD != r.SD {
		t.Error("history should share the immutable snapshot pointer")
	}
	desc := h.entries[0].SD.Describe()
	desc.Attributes["v"] = "mutated"
	if h.entries[0].SD.Attr("v") != "x" {
		t.Error("Describe returned aliased attribute storage")
	}
}

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
