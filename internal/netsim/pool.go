package netsim

import "repro/internal/sim"

// pool holds one type of the network's records: unicast deliveries,
// multicast trains and copies, TCP connections, transfers and frames,
// outage and partition transitions. It grows by chunks from sim.Chunk
// and keeps a free stack, so steady-state traffic allocates nothing. A
// record is reset by its own recycle method when it is put back, and
// every record the pool made stays in its chunks, so reclaim can take
// back the ones the previous run's kernel still held when it was reset.
type pool[T any, P interface {
	*T
	recycle()
}] struct {
	chunks [][]T
	grown  int
	free   []P
}

func (p *pool[T, P]) get() P {
	if len(p.free) == 0 {
		c := sim.Chunk[T](&p.grown, 16, 1024)
		p.chunks = append(p.chunks, c)
		for i := len(c) - 1; i >= 0; i-- {
			p.free = append(p.free, &c[i]) // not through put: never released
		}
	}
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return r
}

func (p *pool[T, P]) put(r P) {
	r.recycle()
	p.free = append(p.free, r)
}

// reclaim puts back every record, in use or not. It is only for a
// network whose kernel has been reset: the events that referred to the
// records in use went with the old queue.
func (p *pool[T, P]) reclaim() {
	p.free = p.free[:0]
	for _, c := range p.chunks {
		for i := len(c) - 1; i >= 0; i-- {
			p.put(&c[i])
		}
	}
}
