package sim

// Step executes the single next pending event, advancing the clock to
// its time (or holding the clock if the event is overdue — see Run's
// re-entrancy invariant). It reports whether an event fired; false
// means the queue held nothing but canceled events, which it discards.
func (k *Kernel) Step() bool {
	e, near := k.head()
	if e == nil {
		return false
	}
	k.pop(near)
	k.fire(e)
	return true
}

// Minute and Hour are the units the tests' long horizons are written in.
const (
	Minute = 60 * Second
	Hour   = 60 * Minute
)
