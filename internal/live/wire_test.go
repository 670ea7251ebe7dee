package live

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

// checkShape decodes data as shape T with the wire scanner and with
// encoding/json's Decoder (unknown fields disallowed, nothing but
// whitespace after the value) and fails unless both accept or both
// reject, and accepted inputs decode to the same value.
func checkShape[T any, P interface {
	*T
	wireObject
}](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	gotErr := decodeWire(data, P(&got))
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)
	if wantErr == nil && len(bytes.Trim(data[dec.InputOffset():], " \t\r\n")) > 0 {
		wantErr = errors.New("trailing data")
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T %q: scanner error %v, encoding/json error %v", got, data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T %q: scanner decoded %#v, encoding/json %#v", got, data, got, want)
	}
}

// FuzzGatewayOp holds the wire scanner to encoding/json on every shape
// it decodes: the six gateway requests, the update and query replies
// and the pushed Notification. It must never panic, must accept exactly
// what encoding/json accepts, and must decode the same value. The seed
// corpus is under testdata/fuzz/FuzzGatewayOp.
func FuzzGatewayOp(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxBody {
			return
		}
		checkShape[attachRequest](t, data)
		checkShape[registerRequest](t, data)
		checkShape[updateRequest](t, data)
		checkShape[queryRequest](t, data)
		checkShape[lookupRequest](t, data)
		checkShape[subscribeRequest](t, data)
		checkShape[updateResponse](t, data)
		checkShape[queryResponse](t, data)
		checkShape[Notification](t, data)
	})
}

// The append-formatted notification datagram is byte-identical to
// json.Marshal's and decodes back to the same value with both decoders.
func TestNotificationRoundTrip(t *testing.T) {
	for _, n := range []Notification{
		{},
		{User: 7, Manager: 3, Version: 12, Virtual: 1234.5678},
		{User: -1, Manager: math.MaxInt64, Version: math.MaxUint64, Virtual: -0.25},
		{User: math.MinInt64, Virtual: 1e-7},
		{Virtual: 5e-324},
		{Virtual: 1e21},
		{Virtual: math.MaxFloat64},
		{Virtual: -1.5e-9},
		{Virtual: math.Copysign(0, -1)},
	} {
		got := appendNotification(nil, n)
		want, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendNotification(%+v) = %s; json.Marshal %s", n, got, want)
		}
		var viaJSON, viaWire Notification
		if err := json.Unmarshal(got, &viaJSON); err != nil || viaJSON != n {
			t.Errorf("%s: encoding/json decoded %+v, %v; want %+v", got, viaJSON, err, n)
		}
		if err := decodeWire(got, &viaWire); err != nil || viaWire != n {
			t.Errorf("%s: wire scanner decoded %+v, %v; want %+v", got, viaWire, err, n)
		}
	}
}
