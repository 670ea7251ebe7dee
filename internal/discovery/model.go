// Package discovery holds the protocol-neutral parts of service discovery
// shared by the FRODO, Jini and UPnP implementations: the service model,
// lease tables and the consistency listener. The model's types are
// defined in package wire, whose packets the network carries inline, and
// keep their discovery names here.
package discovery

import "repro/internal/wire"

type (
	ServiceDescription = wire.ServiceDescription
	Snapshot           = wire.Snapshot
	Query              = wire.Query
	ServiceRecord      = wire.ServiceRecord
)
