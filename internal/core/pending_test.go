package core

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

func TestInconsistentSetLifecycle(t *testing.T) {
	s := NewInconsistentSet()
	s.ResetVersion(2)
	s.Mark(7, 2)
	if !s.ShouldRetry(7) {
		t.Fatal("marked user not retried")
	}
	if s.ShouldRetry(8) {
		t.Error("unmarked user retried")
	}
	// Stale ack (older version) keeps the entry.
	s.AckVersion(7, 1)
	if !s.ShouldRetry(7) {
		t.Error("stale ack cleared the entry")
	}
	// Current ack clears it.
	s.AckVersion(7, 2)
	if s.ShouldRetry(7) {
		t.Error("acked user still retried")
	}
}

func TestInconsistentSetStaleMarkIgnored(t *testing.T) {
	s := NewInconsistentSet()
	s.ResetVersion(3)
	s.Mark(7, 2) // mark for an old version arrives late
	if s.ShouldRetry(7) {
		t.Error("stale mark recorded")
	}
}

func TestInconsistentSetResetOnNewChange(t *testing.T) {
	// "the service changes again, requiring the Manager to reset the
	// notification process"
	s := NewInconsistentSet()
	s.ResetVersion(2)
	s.Mark(7, 2)
	s.Mark(8, 2)
	s.ResetVersion(3)
	if len(s.users) != 0 || s.ShouldRetry(7) || s.ShouldRetry(8) {
		t.Error("reset did not clear the set")
	}
	if s.version != 3 {
		t.Errorf("version = %d, want 3", s.version)
	}
}

func TestInconsistentSetForget(t *testing.T) {
	// "(a) the subscription expires"
	s := NewInconsistentSet()
	s.ResetVersion(1)
	s.Mark(7, 1)
	s.Forget(7)
	if s.ShouldRetry(7) {
		t.Error("forgotten user still retried")
	}
}

// Property: a user is retried iff it was marked for the current version
// and neither acked (at or above that version), forgotten, nor reset away.
func TestQuickInconsistentSetModel(t *testing.T) {
	type op struct {
		Kind uint8 // 0 mark, 1 ack, 2 forget, 3 reset
		User uint8
		Ver  uint8
	}
	f := func(ops []op) bool {
		s := NewInconsistentSet()
		model := map[netsim.NodeID]bool{}
		cur := uint64(0)
		for _, o := range ops {
			u := netsim.NodeID(o.User % 4)
			v := uint64(o.Ver % 4)
			switch o.Kind % 4 {
			case 0:
				s.Mark(u, v)
				if v == cur {
					model[u] = true
				}
			case 1:
				s.AckVersion(u, v)
				if v >= cur {
					delete(model, u)
				}
			case 2:
				s.Forget(u)
				delete(model, u)
			case 3:
				cur = v
				s.ResetVersion(v)
				model = map[netsim.NodeID]bool{}
			}
			for u := netsim.NodeID(0); u < 4; u++ {
				if s.ShouldRetry(u) != model[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
