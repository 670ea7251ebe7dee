package core

import "repro/internal/netsim"

// InconsistentSet is the SRN2 state a Manager (or the Central, on a
// 3-party Manager's behalf) keeps about Users whose update notification
// could not be delivered: "the Manager caches information on inconsistent
// Users and retries notification once a message from the inconsistent User
// is received (such as the subscription lease renewal message)."
//
// An entry is cleared when (a) the subscription expires (the owner calls
// Forget), (b) the service changes again (ResetVersion re-keys the whole
// set), or (c) the update is acknowledged (AckVersion).
type InconsistentSet struct {
	version uint64
	users   map[netsim.NodeID]bool
}

// NewInconsistentSet returns an empty set.
func NewInconsistentSet() *InconsistentSet {
	return &InconsistentSet{users: make(map[netsim.NodeID]bool)}
}

// Reset empties the set entirely (workspace reuse), keeping capacity.
func (s *InconsistentSet) Reset() {
	s.version = 0
	clear(s.users)
}

// ResetVersion clears the set for a fresh service version: a new change
// restarts the whole notification process, so stale entries are dropped
// ("the service changes again, requiring the Manager to reset the
// notification process").
func (s *InconsistentSet) ResetVersion(version uint64) {
	s.version = version
	for u := range s.users {
		delete(s.users, u)
	}
}

// Mark records that the User missed the given version. Marks for stale
// versions are ignored.
func (s *InconsistentSet) Mark(user netsim.NodeID, version uint64) {
	if version == s.version {
		s.users[user] = true
	}
}

// AckVersion clears the User once it acknowledged the given version.
// Acks for stale versions leave the entry in place.
func (s *InconsistentSet) AckVersion(user netsim.NodeID, version uint64) {
	if version >= s.version {
		delete(s.users, user)
	}
}

// Forget drops the User entirely (subscription expired).
func (s *InconsistentSet) Forget(user netsim.NodeID) { delete(s.users, user) }

// ShouldRetry reports whether a message from the User ought to trigger a
// fresh notification attempt.
func (s *InconsistentSet) ShouldRetry(user netsim.NodeID) bool { return s.users[user] }
