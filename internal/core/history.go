package core

import (
	"repro/internal/discovery"
	"repro/internal/netsim"
)

// UpdateHistory is the Manager-side half of SRC2: "The Manager caches the
// history of service changes and only purges the cached updates after all
// interested Users successfully obtained the complete view of the
// service." Each entry is one versioned snapshot of the SD.
type UpdateHistory struct {
	entries []discovery.ServiceRecord
	// obtained tracks, per interested User, the highest version it has
	// confirmed; entries older than every confirmation can be purged.
	obtained map[netsim.NodeID]uint64
}

// NewUpdateHistory returns an empty history.
func NewUpdateHistory() *UpdateHistory {
	return &UpdateHistory{obtained: make(map[netsim.NodeID]uint64)}
}

// Record appends the record after a service change. The record's SD is an
// immutable shared snapshot, so retaining it costs nothing and needs no
// copy.
func (h *UpdateHistory) Record(rec discovery.ServiceRecord) {
	h.entries = append(h.entries, rec)
}

// Reset empties the history (workspace reuse), keeping capacity. The
// tail is zeroed so the retained backing array does not pin the previous
// run's snapshots.
func (h *UpdateHistory) Reset() {
	clear(h.entries)
	h.entries = h.entries[:0]
	clear(h.obtained)
}

// Confirm records that a User has obtained everything up to version, then
// purges entries every interested User has confirmed.
func (h *UpdateHistory) Confirm(user netsim.NodeID, version uint64) {
	if version > h.obtained[user] {
		h.obtained[user] = version
	}
	h.compact()
}

// Interested registers a User whose confirmations gate purging.
func (h *UpdateHistory) Interested(user netsim.NodeID) {
	if _, ok := h.obtained[user]; !ok {
		h.obtained[user] = 0
	}
}

// Disinterested removes a User (its subscription ended); its confirmations
// no longer hold back purging.
func (h *UpdateHistory) Disinterested(user netsim.NodeID) {
	delete(h.obtained, user)
	h.compact()
}

// Len reports the number of retained snapshots.
func (h *UpdateHistory) Len() int { return len(h.entries) }

func (h *UpdateHistory) compact() {
	if len(h.obtained) == 0 || len(h.entries) == 0 {
		return
	}
	min := ^uint64(0)
	for _, v := range h.obtained {
		if v < min {
			min = v
		}
	}
	keep := h.entries[:0]
	for _, e := range h.entries {
		if e.SD.Version() > min {
			keep = append(keep, e)
		}
	}
	// Release the dropped tail so the retained slice does not pin old
	// snapshots.
	for i := len(keep); i < len(h.entries); i++ {
		h.entries[i] = discovery.ServiceRecord{}
	}
	h.entries = keep
}

// SeqMonitor is the receiver-side half of SRC2: "The User and the Registry
// monitor ... the sequence number on the update notifications. When an
// expected update is missed, the User or the Registry requests the
// update."
type SeqMonitor struct {
	last    uint64
	started bool
}

// Observe processes an incoming update's sequence number. It returns
// gapped=true when one or more earlier updates were missed, along with the
// version after which the gap starts. The caller then requests the missed
// updates from the Manager or Registry.
func (m *SeqMonitor) Observe(seq uint64) (gapped bool, after uint64) {
	defer func() {
		if seq > m.last {
			m.last = seq
		}
		m.started = true
	}()
	if !m.started {
		// First observation sets the baseline; a gap cannot be detected.
		return false, 0
	}
	if seq > m.last+1 {
		return true, m.last
	}
	return false, 0
}

// Reset clears the baseline (used when the subscription is re-created).
func (m *SeqMonitor) Reset() { m.last, m.started = 0, false }
