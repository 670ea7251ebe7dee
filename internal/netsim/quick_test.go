package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Property: under arbitrary interface flap schedules, a TCP transfer
// never delivers its payload more than once, and a nil result implies
// exactly one delivery.
func TestQuickTCPExactlyOnce(t *testing.T) {
	type flap struct {
		Node  bool // false: sender, true: receiver
		Tx    bool // which interface
		AtMS  uint16
		ForMS uint16
	}
	f := func(seed int64, flaps []flap) bool {
		k := sim.New(seed)
		nw := mustNew(k, DefaultConfig())
		a := nw.AddNode("a")
		b := nw.AddNode("b")
		delivered := 0
		b.SetEndpoint(EndpointFunc(func(*Message) { delivered++ }))
		var result error
		done := false
		nw.SendTCPWith(DefaultTCPConfig(), a.ID, b.ID, Outgoing{Kind: "x"}, func(err error) {
			result = err
			done = true
		})
		for _, fl := range flaps {
			fl := fl
			node := a
			if fl.Node {
				node = b
			}
			at := sim.Duration(fl.AtMS) * sim.Millisecond
			dur := sim.Duration(fl.ForMS)*sim.Millisecond + sim.Millisecond
			k.At(sim.Time(at), func() {
				if fl.Tx {
					node.SetTx(false)
				} else {
					node.SetRx(false)
				}
			})
			k.At(sim.Time(at+dur), func() {
				if fl.Tx {
					node.SetTx(true)
				} else {
					node.SetRx(true)
				}
			})
		}
		k.Run(10 * 3600 * sim.Second)
		if delivered > 1 {
			return false
		}
		if done && result == nil && delivered != 1 {
			return false
		}
		if done && result == ErrREX && delivered != 0 {
			// A REX happens before any data frame leaves.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: UDP with loss never duplicates and never delivers after a
// drop was recorded for that frame (each send is at most one delivery).
func TestQuickUDPAtMostOnce(t *testing.T) {
	f := func(seed int64, sends uint8, lossPct uint8) bool {
		cfg := DefaultConfig()
		cfg.Loss = float64(lossPct%100) / 100
		k := sim.New(seed)
		nw := mustNew(k, cfg)
		a := nw.AddNode("a")
		b := nw.AddNode("b")
		delivered := 0
		b.SetEndpoint(EndpointFunc(func(*Message) { delivered++ }))
		n := int(sends)
		for i := 0; i < n; i++ {
			nw.SendUDP(a.ID, b.ID, Outgoing{Kind: "x"})
		}
		k.Run(60 * sim.Second)
		c := nw.Counters()
		if delivered > n {
			return false
		}
		return delivered+c.Drops == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: counted sends are monotone in time, so CountedInWindow is
// consistent with the total for any window split.
func TestQuickCountedWindowAdditive(t *testing.T) {
	f := func(seed int64, times []uint16, split uint16) bool {
		k := sim.New(seed)
		nw := mustNew(k, DefaultConfig())
		a := nw.AddNode("a")
		nw.AddNode("b")
		for _, ms := range times {
			at := sim.Time(ms) * sim.Millisecond
			k.At(at, func() { nw.SendUDP(a.ID, 1, Outgoing{Kind: "x", Counted: true}) })
		}
		k.Run(sim.Time(1<<16) * sim.Millisecond)
		c := nw.Counters()
		mid := sim.Time(split) * sim.Millisecond
		end := sim.Time(1<<16) * sim.Millisecond
		left := c.CountedInWindow(0, mid)
		right := c.CountedInWindow(mid+1, end)
		return left+right == c.Counted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
