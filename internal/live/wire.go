package live

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// The wire scanner decodes the shapes on the live request path: every
// gateway request, the update and query replies the Client reads, and
// the pushed Notification. Its fast path takes the plain form those
// messages have on the wire — exact field names, each at most once,
// printable-ASCII strings without escapes, numbers, null — straight from
// the input buffer. Anything else (escapes, non-ASCII, case-folded or
// repeated keys, malformed input) goes to encoding/json's Decoder with
// DisallowUnknownFields. So decodeWire accepts exactly what that Decoder
// accepts, followed by nothing but whitespace, and decodes the same
// value; FuzzGatewayOp holds the fast path to it.

// wireObject is a struct shape the scanner fills: field maps a key to a
// pointer to its field and a bit of its own, (nil, 0) when the key is
// unknown.
type wireObject interface {
	field(key []byte) (any, uint)
}

type scanner struct {
	b []byte
	i int
}

// decodeWire decodes b into v, a pointer to a struct shape.
func decodeWire(b []byte, v wireObject) error {
	s := scanner{b: b}
	if s.value(v) && s.peek() == 0 && s.i == len(b) {
		return nil
	}
	reflect.ValueOf(v).Elem().SetZero()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// peek skips whitespace and reports the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next token.
func (s *scanner) eat(c byte) bool {
	if s.peek() == c {
		s.i++
		return true
	}
	return false
}

// value decodes the next value into the field ptr points to: a *int,
// *uint64, *float64, *string, *map[string]string, *[]Record or
// wireObject. A nil ptr (an unknown key) fails. As in encoding/json,
// null clears a map or slice and leaves anything else as it is.
func (s *scanner) value(ptr any) bool {
	if s.peek() == 'n' {
		if len(s.b)-s.i < 4 || string(s.b[s.i:s.i+4]) != "null" {
			return false
		}
		s.i += 4
		switch p := ptr.(type) {
		case *map[string]string:
			*p = nil
		case *[]Record:
			*p = nil
		}
		return ptr != nil
	}
	var err error
	switch p := ptr.(type) {
	case *int:
		var n int64
		n, err = strconv.ParseInt(string(s.number()), 10, 64)
		*p = int(n)
	case *uint64:
		*p, err = strconv.ParseUint(string(s.number()), 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(string(s.number()), 64)
	case *string:
		str := s.plain()
		*p = string(str)
		return str != nil
	case *map[string]string:
		return s.attrs(p)
	case *[]Record:
		return s.records(p)
	case wireObject:
		var seen uint
		return s.members(func(key []byte) bool {
			field, bit := p.field(key)
			if seen&bit != 0 {
				return false // repeated: encoding/json's merge rules apply
			}
			seen |= bit
			return s.value(field)
		})
	default:
		return false
	}
	return err == nil
}

// members walks an object's members, handing each key to member with
// the scanner positioned at its value.
func (s *scanner) members(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	for first := true; !s.eat('}'); first = false {
		if !first && !s.eat(',') {
			return false
		}
		key := s.plain()
		if key == nil || !s.eat(':') || !member(key) {
			return false
		}
	}
	return true
}

// plain scans a string literal of printable ASCII without escapes and
// returns its content, nil for any other token.
func (s *scanner) plain() []byte {
	if s.peek() != '"' {
		return nil
	}
	for i := s.i + 1; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			str := s.b[s.i+1 : i]
			s.i = i + 1
			return str
		case c == '\\' || c < ' ' || c >= 0x80:
			return nil
		}
	}
	return nil
}

// number scans a JSON number literal; nil when there is none.
func (s *scanner) number() []byte {
	s.peek()
	start := s.i
	for s.i < len(s.b) && strings.IndexByte("+-.0123456789Ee", s.b[s.i]) >= 0 {
		s.i++
	}
	if lit := s.b[start:s.i]; json.Valid(lit) {
		return lit
	}
	return nil
}

// attrs merges an object of strings into a map, creating it first.
func (s *scanner) attrs(dst *map[string]string) bool {
	if s.peek() != '{' {
		return false
	}
	if *dst == nil {
		*dst = map[string]string{}
	}
	return s.members(func(key []byte) bool {
		v := s.plain()
		(*dst)[string(key)] = string(v)
		return v != nil
	})
}

// records decodes a list of Records into a fresh slice; [] is empty,
// not nil, as in encoding/json.
func (s *scanner) records(dst *[]Record) bool {
	if !s.eat('[') {
		return false
	}
	recs := []Record{}
	for !s.eat(']') {
		if len(recs) > 0 && !s.eat(',') {
			return false
		}
		recs = append(recs, Record{})
		if !s.value(&recs[len(recs)-1]) {
			return false
		}
	}
	*dst = recs
	return true
}

// match returns the pointer paired with key's name in fields (name,
// pointer, name, pointer, ...) and a bit for its position.
func match(key []byte, fields ...any) (any, uint) {
	for i := 0; i < len(fields); i += 2 {
		if string(key) == fields[i].(string) {
			return fields[i+1], 1 << (i / 2)
		}
	}
	return nil, 0
}

func (q *ServiceQuery) field(k []byte) (any, uint) {
	return match(k, "device", &q.Device, "service", &q.Service, "attrs", &q.Attrs)
}

func (sp *ServiceSpec) field(k []byte) (any, uint) {
	return match(k, "device", &sp.Device, "service", &sp.Service, "attrs", &sp.Attrs)
}

func (r *Record) field(k []byte) (any, uint) {
	return match(k, "manager", &r.Manager, "device", &r.Device, "service", &r.Service,
		"version", &r.Version, "attrs", &r.Attrs)
}

func (n *Notification) field(k []byte) (any, uint) {
	return match(k, "user", &n.User, "manager", &n.Manager, "version", &n.Version, "vt", &n.Virtual)
}

func (r *updateRequest) field(k []byte) (any, uint) {
	return match(k, "manager", &r.Manager, "attrs", &r.Attrs)
}

func (r *subscribeRequest) field(k []byte) (any, uint) {
	return match(k, "user", &r.User, "addr", &r.Addr)
}

func (r *attachRequest) field(k []byte) (any, uint)   { return match(k, "query", &r.Query) }
func (r *registerRequest) field(k []byte) (any, uint) { return match(k, "spec", &r.Spec) }
func (r *queryRequest) field(k []byte) (any, uint)    { return match(k, "user", &r.User) }
func (r *lookupRequest) field(k []byte) (any, uint)   { return match(k, "query", &r.Query) }
func (r *updateResponse) field(k []byte) (any, uint)  { return match(k, "version", &r.Version) }
func (r *queryResponse) field(k []byte) (any, uint)   { return match(k, "records", &r.Records) }

// appendNotification formats n as json.Marshal does, without its
// reflection; Virtual is a kernel instant in seconds, always finite.
func appendNotification(b []byte, n Notification) []byte {
	b = strconv.AppendInt(append(b, `{"user":`...), int64(n.User), 10)
	b = strconv.AppendInt(append(b, `,"manager":`...), int64(n.Manager), 10)
	b = strconv.AppendUint(append(b, `,"version":`...), n.Version, 10)
	b = append(b, `,"vt":`...)
	if abs := math.Abs(n.Virtual); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, n.Virtual, 'e', -1, 64)
		// encoding/json writes e-7, not e-07.
		if k := len(b); b[k-4] == 'e' && b[k-3] == '-' && b[k-2] == '0' {
			b = append(b[:k-2], b[k-1])
		}
	} else {
		b = strconv.AppendFloat(b, n.Virtual, 'f', -1, 64)
	}
	return append(b, '}')
}
