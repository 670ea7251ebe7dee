package experiment

import (
	"fmt"

	"repro/internal/sim"
)

// FlashCrowd is one scheduled arrival spike: Users fresh Users join the
// network over [At, At+Window), evenly spaced — the flash-crowd regime
// (a conference room fills, a device fleet reboots) whose discovery
// burst the smooth Poisson arrival model never produces. Flash-crowd
// Users boot immediately on arrival, discover the running system and are
// measured like initial Users. Scheduling draws no randomness, so runs
// without flash crowds replay unchanged.
type FlashCrowd struct {
	// At is when the spike starts.
	At sim.Time
	// Users is the number of arrivals in the spike.
	Users int
	// Window is the interval the arrivals spread over; 0 means all Users
	// arrive at the same instant.
	Window sim.Duration
}

// scheduleFlashCrowds arms the arrival events of every spike. Flash
// arrivals get their own names, so they never collide with Poisson ones.
func (s *Scenario) scheduleFlashCrowds(crowds []FlashCrowd) {
	for ci, fc := range crowds {
		for i := 0; i < fc.Users; i++ {
			at := fc.At
			if fc.Window > 0 {
				at += sim.Time(int64(fc.Window) * int64(i) / int64(fc.Users))
			}
			s.scheduleArrival(at, flashUserName(ci, i))
		}
	}
}

func flashUserName(crowd, i int) string {
	return fmt.Sprintf("Flash%d-%d", crowd+1, i+1)
}
