// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel replaces the Rapide ADL tool suite used by the paper: it keeps
// a virtual clock, a priority queue of pending events, and a seeded random
// number generator, so that a whole protocol run is a pure function of its
// seed. Events scheduled for the same instant fire in scheduling order,
// which gives the total order the protocol models rely on.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds from the start
// of the run. The paper's runs last 5400 s and its shortest interval is a
// 10 µs transmission delay, both of which fit comfortably.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is kept distinct
// from Time so that signatures document whether they take an instant or a
// span.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Sec reports t as a floating point number of seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision, the
// granularity used in the paper's event logs.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Sec()) }
