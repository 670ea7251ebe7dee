package live

import "repro/internal/discovery"

// The gateway's wire vocabulary: JSON over loopback HTTP for requests
// and responses, JSON UDP datagrams for pushed update notifications.
// Shared by the gateway handlers and the Client, so the two cannot
// drift.

// ServiceQuery is the external form of discovery.Query.
type ServiceQuery struct {
	Device  string            `json:"device,omitempty"`
	Service string            `json:"service,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func (q ServiceQuery) toQuery() discovery.Query {
	return discovery.Query{DeviceType: q.Device, ServiceType: q.Service, Attributes: q.Attrs}
}

// ServiceSpec describes a service to register.
type ServiceSpec struct {
	Device  string            `json:"device"`
	Service string            `json:"service"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func (s ServiceSpec) toSD() discovery.ServiceDescription {
	return discovery.ServiceDescription{DeviceType: s.Device, ServiceType: s.Service, Attributes: s.Attrs}
}

// Record is the external form of a discovery.ServiceRecord.
type Record struct {
	Manager int               `json:"manager"`
	Device  string            `json:"device"`
	Service string            `json:"service"`
	Version uint64            `json:"version"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func toRecord(rec discovery.ServiceRecord) Record {
	sd := rec.SD.Describe()
	return Record{Manager: int(rec.Manager), Device: sd.DeviceType,
		Service: sd.ServiceType, Version: sd.Version, Attrs: sd.Attributes}
}

// attachRequest spawns a protocol User for the client.
type attachRequest struct {
	Query ServiceQuery `json:"query"`
}
type attachResponse struct {
	User int `json:"user"`
}

// registerRequest spawns a Manager hosting the client's service.
type registerRequest struct {
	Spec ServiceSpec `json:"spec"`
}
type registerResponse struct {
	Manager int    `json:"manager"`
	Version uint64 `json:"version"`
}

// updateRequest mutates a registered service, bumping its version. The
// attrs are merged into the attribute list; empty attrs still bump the
// version (a "Rev" attribute records the count). The measured printer
// accepts only attr-less updates — its change is the paper's canonical
// mutation, fired through the scenario's change taps.
type updateRequest struct {
	Manager int               `json:"manager"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}
type updateResponse struct {
	Version uint64 `json:"version"`
}

// queryRequest reads a client User's cache — live protocol state.
type queryRequest struct {
	User int `json:"user"`
}

// queryResponse answers a query and a lookup alike.
type queryResponse struct {
	Records []Record `json:"records"`
}

// lookupRequest searches the fabric with real frames from the gateway's
// port node: unicast to the Registries (Jini, FRODO) or multicast into
// the discovery group (UPnP), answered by live Registry repositories
// and Managers within a virtual collection window.
type lookupRequest struct {
	Query ServiceQuery `json:"query"`
}

// subscribeRequest asks for UDP push notifications of a User's cache
// writes; Addr is the client's listening address as a literal IP and
// port ("127.0.0.1:port").
type subscribeRequest struct {
	User int    `json:"user"`
	Addr string `json:"addr"`
}

// Notification is one pushed cache-write datagram.
type Notification struct {
	User    int     `json:"user"`
	Manager int     `json:"manager"`
	Version uint64  `json:"version"`
	Virtual float64 `json:"vt"` // virtual seconds of the cache write
}

// errorResponse carries a handler failure.
type errorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	VirtualSec    float64 `json:"virtual_sec"`
	EventsFired   uint64  `json:"events_fired"`
	Injections    uint64  `json:"injections"`
	Ops           uint64  `json:"ops"`
	NotifySent    uint64  `json:"notify_sent"`
	NotifyDropped uint64  `json:"notify_dropped"`
	InjectErrors  uint64  `json:"inject_errors"`
	Users         int     `json:"users"`
	Managers      int     `json:"managers"`
}

// OracleResponse is the /v1/oracle payload.
type OracleResponse struct {
	Attached   bool     `json:"attached"`
	Total      int      `json:"total"`
	Clean      bool     `json:"clean"`
	Violations []string `json:"violations,omitempty"`
}
