package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTechniqueSetOperations(t *testing.T) {
	s := SRN1 | SRN2 | PR1
	if !s.Has(SRN1) || !s.Has(SRN2|PR1) {
		t.Error("Has failed on present techniques")
	}
	if s.Has(PR5) || s.Has(SRN1|PR5) {
		t.Error("Has reported absent technique")
	}
	if s.Without(PR1).Has(PR1) {
		t.Error("Without did not remove")
	}
	if s.Without(PR1) != SRN1|SRN2 {
		t.Errorf("Without = %v", s.Without(PR1))
	}
}

func TestTechniqueSetString(t *testing.T) {
	if got := TechniqueSet(0).String(); got != "none" {
		t.Errorf("empty set String = %q", got)
	}
	s := SRN2 | PR1 | PR5
	str := s.String()
	for _, want := range []string{"SRN2", "PR1", "PR5"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
	if strings.Contains(str, "SRC1") {
		t.Errorf("String() = %q contains disabled technique", str)
	}
}

func TestTable2TechniqueRows(t *testing.T) {
	// UPnP: SRC1, SRN1 (TCP-dependent) + PR4, PR5.
	u := UPnPTechniques()
	if !u.Has(SRC1|SRN1|PR4|PR5) || u.Has(SRN2) || u.Has(PR1) || u.Has(PR2) || u.Has(PR3) {
		t.Errorf("UPnP techniques = %v", u)
	}
	// Jini: SRN1, SRC1 (TCP-dependent), SRC2 + PR1, PR2, PR3.
	j := JiniTechniques()
	if !j.Has(SRC1|SRN1|SRC2|PR1|PR2|PR3) || j.Has(SRN2) || j.Has(PR4) || j.Has(PR5) {
		t.Errorf("Jini techniques = %v", j)
	}
	// FRODO is the only protocol with SRN2 (§4.4).
	f3, f2 := FrodoThreePartyTechniques(), FrodoTwoPartyTechniques()
	if !f3.Has(SRN2) || !f2.Has(SRN2) {
		t.Error("FRODO rows missing SRN2")
	}
	if !f3.Has(PR1|PR3|PR5) || f3.Has(PR4) {
		t.Errorf("FRODO 3-party PRs = %v", f3)
	}
	if !f2.Has(PR1|PR4|PR5) || f2.Has(PR3) {
		t.Errorf("FRODO 2-party PRs = %v", f2)
	}
}

// Property: Has(x) holds once x is added, and not after Without(x).
func TestQuickTechniqueSetAlgebra(t *testing.T) {
	f := func(base, add uint16) bool {
		s := TechniqueSet(base)
		a := TechniqueSet(add)
		if !(s | a).Has(a) {
			return false
		}
		if s.Without(a).Has(a) && a != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
