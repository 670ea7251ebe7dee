package wire

import "testing"

// TestKindNamesAreStable pins every kind's wire-log name: per-kind
// counters, the hunt's coverage keys, the sd_frames_sent_kind_total
// labels and sdsim's trace records are keyed by them.
func TestKindNamesAreStable(t *testing.T) {
	want := map[Kind]string{
		Announce:           "Announce",
		Search:             "ServiceSearch",
		SearchReply:        "ServiceFound",
		Register:           "ServiceRegistration",
		RegisterAck:        "RegistrationAck",
		Subscribe:          "SubscriptionRequest",
		SubscribeAck:       "SubscriptionAck",
		Renew:              "SubscriptionRenew",
		RenewAck:           "RenewAck",
		RenewError:         "RenewError",
		Update:             "ServiceUpdate",
		UpdateAck:          "UpdateAck",
		Invalidate:         "Invalidate",
		Get:                "Get",
		GetReply:           "GetReply",
		ResubscribeRequest: "ResubscribeRequest",
		ManagerGone:        "ManagerGone",
		Bye:                "Bye",
		ElectionAnnounce:   "ElectionAnnounce",
		AppointBackup:      "AppointBackup",
	}
	for k := Kind(0); k < 255; k++ {
		name, ok := want[k]
		if !ok {
			name = "Unknown"
		}
		if got := k.String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, name)
		}
	}
}

func TestRecordsListOrInline(t *testing.T) {
	sd := ServiceDescription{ServiceType: "ColorPrinter"}.Freeze()
	inline := Packet{Kind: SearchReply, Manager: 7, SD: sd}
	if recs := inline.Records(); len(recs) != 1 || recs[0] != (ServiceRecord{Manager: 7, SD: sd}) {
		t.Errorf("inline reply yields %v, want its one record", recs)
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, rec := range inline.Records() {
			_ = rec.SD.Version()
		}
	}); n != 0 {
		t.Errorf("reading an inline reply costs %.0f allocs, want 0", n)
	}
	empty := Packet{Kind: SearchReply, Recs: []ServiceRecord{}}
	if recs := empty.Records(); len(recs) != 0 {
		t.Errorf("an empty list yields %v", recs)
	}
	list := []ServiceRecord{{Manager: 1, SD: sd}, {Manager: 2, SD: sd}}
	if recs := (&Packet{Kind: SearchReply, Recs: list}).Records(); len(recs) != 2 || recs[1].Manager != 2 {
		t.Errorf("a list reply yields %v, want %v", recs, list)
	}
}
