package frodo

import (
	"math/bits"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Fleet builds the FRODO devices of one scenario on one shared
// configuration and owns their election records, one per node slot, cut
// from chunks in slot order: a candidacy train delivered to every node
// walks records that sit next to each other, 32 bytes apiece, instead of
// one Node per receiver. A slot's record passes to every device built on
// the slot — the same device through Rearm, or the next tenant of a
// retired slot (a detached device never writes its record again) — so a
// rearmed build allocates no record, and the records go with the build.
type Fleet struct {
	cfg    Config
	chunks [][]ballot
	grown  int // length of the last chunk
}

// Slot i's record is found by arithmetic: chunk k holds the slots from
// ballotsMin·(2^k − 1) on, its length doubling from ballotsMin up to
// ballotsMax as sim.Chunk cuts them, then ballotsMax each. A full chunk
// is 32 KB, the largest small-object size: a cold build takes it from
// the allocator's cached spans instead of mapping a large object.
const (
	ballotsMin = 64
	ballotsMax = 1024
	// ballotsDoubling is the number of chunks that double, and
	// ballotsDoubled the slots they hold.
	ballotsDoubling = 5
	ballotsDoubled  = ballotsMin * (1<<ballotsDoubling - 1)
)

// NewFleet returns a fleet building devices on cfg, which it keeps.
func NewFleet(cfg Config) *Fleet { return &Fleet{cfg: cfg} }

// NewNode is NewNode on the fleet's configuration and the slot's record.
func (f *Fleet) NewNode(n *netsim.Node, class Class, power int) *Node {
	return newNode(n, &f.cfg, class, power, f.ballot(n.ID))
}

// ballot returns the record of a node slot, cutting chunks up to its own
// on first use.
func (f *Fleet) ballot(id netsim.NodeID) *ballot {
	k, i := 0, int(id)
	if i < ballotsDoubled {
		k = bits.Len(uint(i/ballotsMin+1)) - 1
		i -= ballotsMin * (1<<k - 1)
	} else {
		k, i = ballotsDoubling+(i-ballotsDoubled)/ballotsMax, (i-ballotsDoubled)%ballotsMax
	}
	for k >= len(f.chunks) {
		f.chunks = append(f.chunks, sim.Chunk[ballot](&f.grown, ballotsMin, ballotsMax))
	}
	return &f.chunks[k][i]
}
