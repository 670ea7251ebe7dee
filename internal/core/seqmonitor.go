package core

// SeqMonitor is SRC2's receiver side: "The User and the Registry monitor
// ... the sequence number on the update notifications. When an expected
// update is missed, the User or the Registry requests the update." The
// Manager answers such a request with its current record, which carries
// the full description, so it keeps no history of earlier versions.
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
