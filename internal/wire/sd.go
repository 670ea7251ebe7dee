// Package wire holds what a simulated frame can carry: the service model
// (descriptions, their immutable snapshots, queries and records), node
// identities, and Packet, the one closed message value of the protocols'
// shared vocabulary. It is a leaf, so netsim carries packets inline
// without importing the protocols or package discovery, which re-exports
// the service model under its own names.
package wire

import (
	"fmt"
	"sort"
	"strings"
)

// ServiceDescription is the mutable builder for a service in the
// three-part form of §1: device type (e.g. printer), service type (e.g.
// color printing) and an attribute list (e.g. location, paper size).
// Version counts the changes the Manager has applied; a User is
// consistent when its cached Version equals the Manager's.
//
// Protocol state never holds a ServiceDescription: Managers Freeze the
// builder into an immutable *Snapshot at construction time, and every
// later change goes through Snapshot.Mutate (copy-on-write). The builder
// form survives for construction sites and diagnostics (Snapshot.Describe).
type ServiceDescription struct {
	DeviceType  string
	ServiceType string
	Attributes  map[string]string
	Version     uint64
}

// Clone returns a deep copy of the builder.
func (sd ServiceDescription) Clone() ServiceDescription {
	out := sd
	if sd.Attributes != nil {
		out.Attributes = make(map[string]string, len(sd.Attributes))
		for k, v := range sd.Attributes {
			out.Attributes[k] = v
		}
	}
	return out
}

// Equal reports whether two descriptions carry identical content,
// including version.
func (sd ServiceDescription) Equal(other ServiceDescription) bool {
	if sd.DeviceType != other.DeviceType || sd.ServiceType != other.ServiceType ||
		sd.Version != other.Version || len(sd.Attributes) != len(other.Attributes) {
		return false
	}
	for k, v := range sd.Attributes {
		if ov, ok := other.Attributes[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// String renders the SD in the paper's notation:
// SD = {DeviceType=Printer, ServiceType=ColorPrinter, AttributeList{...}}.
func (sd ServiceDescription) String() string {
	return renderSD(sd.DeviceType, sd.ServiceType, sd.Attributes, sd.Version)
}

func renderSD(dev, svc string, attrs map[string]string, version uint64) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var list strings.Builder
	for i, k := range keys {
		if i > 0 {
			list.WriteString(", ")
		}
		fmt.Fprintf(&list, "%s=%s", k, attrs[k])
	}
	return fmt.Sprintf("SD{DeviceType=%s, ServiceType=%s, AttributeList{%s}, v%d}",
		dev, svc, list.String(), version)
}

// Freeze deep-copies the builder into an immutable snapshot. A zero
// Version freezes as version 1: a live service always has a first
// version for Users to be consistent with.
func (sd ServiceDescription) Freeze() *Snapshot {
	v := sd.Version
	if v == 0 {
		v = 1
	}
	attrs := make(map[string]string, len(sd.Attributes))
	for k, val := range sd.Attributes {
		attrs[k] = val
	}
	return &Snapshot{deviceType: sd.DeviceType, serviceType: sd.ServiceType,
		attrs: attrs, version: v}
}

// Snapshot is one immutable, versioned state of a service description.
// Snapshots are shared by pointer across the whole stack — Manager state,
// Registry repositories, User caches, update history and packets all
// hold the same *Snapshot — which is safe precisely because a snapshot
// can never change: the fields are unexported, there is no setter, and a
// service change builds a new snapshot via Mutate instead of touching an
// old one. The PR-2 copy discipline ("caches must never alias a Manager's
// live attribute map") is thereby a property of the type, not of caller
// care, and the per-message path carries no deep copies at all.
type Snapshot struct {
	deviceType  string
	serviceType string
	attrs       map[string]string
	version     uint64
}

// Mutate derives the next snapshot: the attribute map is copied, handed
// to mutate, and frozen under version+1. The receiver is unchanged. The
// mutate callback owns the map only for the duration of the call and must
// not retain it — a retained reference would pierce the immutability the
// rest of the system relies on.
func (s *Snapshot) Mutate(mutate func(attrs map[string]string)) *Snapshot {
	attrs := make(map[string]string, len(s.attrs)+1)
	for k, v := range s.attrs {
		attrs[k] = v
	}
	if mutate != nil {
		mutate(attrs)
	}
	return &Snapshot{deviceType: s.deviceType, serviceType: s.serviceType,
		attrs: attrs, version: s.version + 1}
}

// Version reports the snapshot's service version.
func (s *Snapshot) Version() uint64 { return s.version }

// Attr reports the value of one attribute, "" if absent.
func (s *Snapshot) Attr(key string) string { return s.attrs[key] }

// Describe copies the snapshot back out into the mutable builder form,
// for tests and diagnostics.
func (s *Snapshot) Describe() ServiceDescription {
	attrs := make(map[string]string, len(s.attrs))
	for k, v := range s.attrs {
		attrs[k] = v
	}
	return ServiceDescription{DeviceType: s.deviceType, ServiceType: s.serviceType,
		Attributes: attrs, Version: s.version}
}

// String renders the snapshot in the paper's notation.
func (s *Snapshot) String() string {
	if s == nil {
		return "SD{<nil>}"
	}
	return renderSD(s.deviceType, s.serviceType, s.attrs, s.version)
}

// Query is a User's service requirement: empty fields match anything, and
// every listed attribute must be present with the same value.
type Query struct {
	DeviceType  string
	ServiceType string
	Attributes  map[string]string
}

// Matches reports whether the snapshot satisfies the query. A nil
// snapshot (an absent service) matches nothing.
func (q Query) Matches(s *Snapshot) bool {
	if s == nil {
		return false
	}
	if q.DeviceType != "" && q.DeviceType != s.deviceType {
		return false
	}
	if q.ServiceType != "" && q.ServiceType != s.serviceType {
		return false
	}
	for k, v := range q.Attributes {
		if s.attrs[k] != v {
			return false
		}
	}
	return true
}

// ServiceRecord binds a description snapshot to the Manager that owns it;
// it is the unit stored in Registry repositories and User caches, and the
// unit a packet carries. Records are tiny (an ID and a pointer) and
// copied freely; the snapshot behind SD is shared, immutable, by design.
type ServiceRecord struct {
	Manager NodeID
	SD      *Snapshot
}
