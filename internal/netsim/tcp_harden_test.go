package netsim

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// Hardened-transport knobs (a hardened run sets these; the Table 3
// baseline leaves them zero).

// TestTCPTransportHardening: a protocol node's transport is the Table 3
// one, or, hardened, the same with the four Hardened* bounds.
func TestTCPTransportHardening(t *testing.T) {
	if got := TCPTransport(false); !reflect.DeepEqual(got, DefaultTCPConfig()) {
		t.Errorf("paper transport = %+v, want DefaultTCPConfig()", got)
	}
	want := DefaultTCPConfig()
	want.DataRetransmits = HardenedDataRetransmits
	want.MaxRTO = HardenedMaxRTO
	want.RTOJitter = HardenedRTOJitter
	want.AbortOnRetire = true
	if got := TCPTransport(true); !reflect.DeepEqual(got, want) {
		t.Errorf("hardened transport = %+v, want %+v", got, want)
	}
}

func TestTCPDataRetransmitsCapRaisesREX(t *testing.T) {
	// Setup succeeds, receiver dies before the data lands and never
	// recovers: a capped transport must give up with REX instead of
	// retransmitting forever.
	h := newHarness(t, 2, fixedDelayConfig(100*sim.Microsecond))
	h.k.At(250*sim.Microsecond, func() { h.nodes[1].SetRx(false) })
	cfg := DefaultTCPConfig()
	cfg.DataRetransmits = 3
	var result error
	done := false
	h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, func(err error) { result, done = err, true })
	h.k.Run(100 * sim.Second)
	if !done || result != ErrREX {
		t.Fatalf("done=%v result=%v, want ErrREX after the retransmit budget", done, result)
	}
	if len(h.inbox[1]) != 0 {
		t.Error("payload delivered despite the dead receiver")
	}
}

func TestTCPMaxRTOCeilsTheBackoff(t *testing.T) {
	// With the receiver down for ~100s, the uncapped 25% backoff sends
	// ~20 frames (TestTCPBackoffGrows); a 2s ceiling keeps retransmitting
	// every 2s, so the frame count must stay roughly duration/MaxRTO.
	h := newHarness(t, 2, fixedDelayConfig(100*sim.Microsecond))
	h.k.At(250*sim.Microsecond, func() { h.nodes[1].SetRx(false) })
	h.k.At(100*sim.Second, func() { h.nodes[1].SetRx(true) })
	cfg := DefaultTCPConfig()
	cfg.MaxRTO = 2 * sim.Second
	var result error
	done := false
	h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, func(err error) { result, done = err, true })
	h.k.Run(200 * sim.Second)
	if !done || result != nil {
		t.Fatalf("done=%v result=%v, want delivery after recovery", done, result)
	}
	if frames := h.nw.Counters().TransportFrames; frames < 45 {
		t.Errorf("transport frames = %d, want ≥ 45 with the RTO ceiling holding retries at 2s", frames)
	}
}

func TestTCPRTOJitterStaysDeterministic(t *testing.T) {
	// Jittered retransmission delays draw from the kernel RNG, so two
	// identically-seeded runs must replay the exact same frame schedule —
	// the bit-for-bit property every fixture depends on.
	run := func() (frames, delivered int) {
		h := newHarness(t, 2, fixedDelayConfig(100*sim.Microsecond))
		h.k.At(250*sim.Microsecond, func() { h.nodes[1].SetRx(false) })
		h.k.At(50*sim.Second, func() { h.nodes[1].SetRx(true) })
		cfg := DefaultTCPConfig()
		cfg.RTOJitter = 0.5
		h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, nil)
		h.k.Run(200 * sim.Second)
		return h.nw.Counters().TransportFrames, len(h.inbox[1])
	}
	f1, d1 := run()
	f2, d2 := run()
	if d1 != 1 || d2 != 1 {
		t.Fatalf("delivered %d/%d times, want exactly once each run", d1, d2)
	}
	if f1 != f2 {
		t.Errorf("frame counts diverged under the same seed: %d vs %d", f1, f2)
	}
}

func TestTCPAbortOnRetireStopsSetup(t *testing.T) {
	// The initiator retires mid-setup: a hardened connection abandons the
	// SYN train silently instead of grinding to REX at 102s.
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[1].SetRx(false)
	cfg := DefaultTCPConfig()
	cfg.AbortOnRetire = true
	var result error
	var finishedAt sim.Time
	done := false
	h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, func(err error) {
		result, finishedAt = err, h.k.Now()
		done = true
	})
	h.k.At(10*sim.Second, func() { h.nw.Retire(0) })
	h.k.Run(500 * sim.Second)
	if !done || result != ErrAborted {
		t.Fatalf("done=%v result=%v, want ErrAborted from the retired initiator", done, result)
	}
	// The next scheduled SYN (t=30s) notices the retirement; no frames
	// after that, and in particular no REX at 102s.
	if finishedAt > 30*sim.Second {
		t.Errorf("aborted at %v, want at the first post-retirement SYN (30s)", finishedAt)
	}
}

func TestTCPAbortOnRetireStopsTransferAfterSlotRecycle(t *testing.T) {
	// Setup succeeds, the data is in retransmission, and the sender's
	// slot is retired AND handed to a new tenant: the old transfer must
	// notice the tenancy change and abort rather than transmit as the
	// new device.
	h := newHarness(t, 2, fixedDelayConfig(100*sim.Microsecond))
	h.k.At(250*sim.Microsecond, func() { h.nodes[1].SetRx(false) })
	cfg := DefaultTCPConfig()
	cfg.AbortOnRetire = true
	var result error
	done := false
	h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, func(err error) { result, done = err, true })
	h.k.At(2*sim.Second, func() {
		h.nw.Retire(0)
		h.nw.AddNode("tenant") // recycles slot 0 with a bumped generation
	})
	h.k.Run(100 * sim.Second)
	if !done || result != ErrAborted {
		t.Fatalf("done=%v result=%v, want ErrAborted after the slot changed tenants", done, result)
	}
	if len(h.inbox[1]) != 0 {
		t.Error("payload delivered by a retired sender")
	}
}
