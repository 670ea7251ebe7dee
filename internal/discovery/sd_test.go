package discovery

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func printerSD() ServiceDescription {
	return ServiceDescription{
		DeviceType:  "Printer",
		ServiceType: "ColorPrinter",
		Attributes:  map[string]string{"PaperSize": "A4", "Location": "Study"},
		Version:     1,
	}
}

func TestSDCloneIsDeep(t *testing.T) {
	sd := printerSD()
	cp := sd.Clone()
	cp.Attributes["PaperSize"] = "Letter"
	if sd.Attributes["PaperSize"] != "A4" {
		t.Error("Clone aliases the attribute map")
	}
	if !sd.Equal(sd.Clone()) {
		t.Error("Clone is not Equal to the original")
	}
}

func TestSDEqual(t *testing.T) {
	a := printerSD()
	b := printerSD()
	if !a.Equal(b) {
		t.Error("identical SDs not Equal")
	}
	b.Version = 2
	if a.Equal(b) {
		t.Error("different versions compare Equal")
	}
	c := printerSD()
	c.Attributes["Location"] = "Kitchen"
	if a.Equal(c) {
		t.Error("different attributes compare Equal")
	}
	d := printerSD()
	delete(d.Attributes, "Location")
	if a.Equal(d) || d.Equal(a) {
		t.Error("different attribute counts compare Equal")
	}
}

func TestSDStringUsesPaperNotation(t *testing.T) {
	s := printerSD().String()
	for _, want := range []string{"DeviceType=Printer", "ServiceType=ColorPrinter", "PaperSize=A4", "AttributeList{"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestQueryMatching(t *testing.T) {
	sd := printerSD()
	cases := []struct {
		name string
		q    Query
		want bool
	}{
		{"empty matches all", Query{}, true},
		{"device type", Query{DeviceType: "Printer"}, true},
		{"wrong device type", Query{DeviceType: "Camera"}, false},
		{"service type", Query{ServiceType: "ColorPrinter"}, true},
		{"wrong service type", Query{ServiceType: "BWPrinter"}, false},
		{"attribute subset", Query{Attributes: map[string]string{"Location": "Study"}}, true},
		{"attribute mismatch", Query{Attributes: map[string]string{"Location": "Kitchen"}}, false},
		{"absent attribute", Query{Attributes: map[string]string{"Duplex": "yes"}}, false},
		{"full match", Query{DeviceType: "Printer", ServiceType: "ColorPrinter",
			Attributes: map[string]string{"PaperSize": "A4"}}, true},
	}
	snap := sd.Freeze()
	for _, c := range cases {
		if got := c.q.Matches(snap); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestServiceRecordSharesSnapshot(t *testing.T) {
	r := ServiceRecord{Manager: 3, SD: printerSD().Freeze()}
	cp := r // records are plain values; the snapshot behind SD is shared
	if cp.SD != r.SD {
		t.Error("record copy should share the snapshot pointer")
	}
	if cp.SD.Attr("PaperSize") != "A4" {
		t.Error("snapshot lost attribute content")
	}
}

// Property: Clone always yields an Equal SD whose attribute map is
// independent storage.
func TestQuickCloneEqual(t *testing.T) {
	gen := func(r *rand.Rand) ServiceDescription {
		attrs := map[string]string{}
		for i := 0; i < r.Intn(5); i++ {
			attrs[string(rune('a'+i))] = string(rune('A' + r.Intn(26)))
		}
		return ServiceDescription{
			DeviceType:  string(rune('a' + r.Intn(4))),
			ServiceType: string(rune('p' + r.Intn(4))),
			Attributes:  attrs,
			Version:     uint64(r.Intn(100)),
		}
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(gen(r))
		},
	}
	f := func(sd ServiceDescription) bool {
		cp := sd.Clone()
		if !cp.Equal(sd) || !sd.Equal(cp) {
			return false
		}
		if len(cp.Attributes) > 0 {
			for k := range cp.Attributes {
				cp.Attributes[k] = "mutated"
				return sd.Attributes[k] != "mutated"
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: a query constructed from a subset of an SD's fields always
// matches that SD.
func TestQuickSubsetQueryMatches(t *testing.T) {
	f := func(dev, svc string, useDev, useSvc bool) bool {
		sd := ServiceDescription{DeviceType: dev, ServiceType: svc,
			Attributes: map[string]string{"k": "v"}}
		q := Query{}
		if useDev {
			q.DeviceType = dev
		}
		if useSvc {
			q.ServiceType = svc
		}
		return q.Matches(sd.Freeze())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
