package discovery

import (
	"testing"

	"repro/internal/sim"
)

// TestLeaseTableSharesSnapshotsWithoutAliasing models what every User
// cache and Registry repository in the system now does: store records
// whose SD is a shared snapshot. A new version stored under the same key
// must not disturb a record handed out earlier — the old snapshot stays
// exactly as it was.
func TestLeaseTableSharesSnapshotsWithoutAliasing(t *testing.T) {
	k := sim.New(1)
	cache := newTable[int, ServiceRecord](k, nil)

	v1 := printerSD().Freeze()
	cache.Put(7, ServiceRecord{Manager: 7, SD: v1}, 100*sim.Second)
	got1, _ := cache.Get(7)
	if got1.SD != v1 {
		t.Fatal("cache should share the stored snapshot pointer")
	}

	v2 := v1.Mutate(func(attrs map[string]string) { attrs["PaperSize"] = "Letter" })
	cache.Put(7, ServiceRecord{Manager: 7, SD: v2}, 100*sim.Second)

	if got1.SD.Version() != 1 || got1.SD.Attr("PaperSize") != "A4" {
		t.Errorf("earlier record changed under the caller: %v", got1.SD)
	}
	// A described copy is independent storage.
	desc := got1.SD.Describe()
	desc.Attributes["PaperSize"] = "mutated"
	if got1.SD.Attr("PaperSize") != "A4" {
		t.Error("Describe returned aliased attribute storage")
	}
	got2, _ := cache.Get(7)
	if got2.SD.Version() != 2 || got2.SD.Attr("PaperSize") != "Letter" {
		t.Errorf("replacement not visible: %v", got2.SD)
	}
}
