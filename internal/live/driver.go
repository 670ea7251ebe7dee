// Package live is the real-time execution backend: it turns the
// discrete-event stack — kernel, network, protocol instances, scenario
// construction, consistency oracle — into a serving system without
// forking any protocol code.
//
// The split of responsibilities:
//
//   - Driver owns a sim.Kernel and its Scenario on one dedicated
//     goroutine and maps virtual time onto the wall clock with a
//     configurable dilation factor. Everything that touches simulation
//     state goes through Driver.Call, which serializes external
//     work into the event loop — the kernel stays single-threaded, the
//     protocols never learn they are serving real traffic.
//   - Gateway (gateway.go) exposes the running scenario over loopback
//     HTTP and UDP: external clients register services, query, update
//     and subscribe; requests become scenario mutations or real frames
//     on the simulated fabric; update notifications are pushed as UDP
//     datagrams from the Users' cache-write taps.
//   - Server (server.go) bundles the two behind one Serve call; the
//     sdlived daemon and sdload load generator (cmd/) drive it from the
//     command line.
//
// Virtual-time replay is untouched: the live path only ever calls the
// same public simulation APIs the experiment harness uses, draws no
// extra randomness during construction, and is compiled into binaries
// the deterministic sweeps never load.
package live

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/verify"
)

// ErrStopped is returned by Call after the driver stopped.
var ErrStopped = errors.New("live: driver stopped")

// Config parameterizes a live scenario.
type Config struct {
	// System selects one of the five simulated systems.
	System experiment.System
	// Topology is the base population built at boot (scenario Users,
	// Managers, Registries); external clients and registrations come on
	// top via the gateway. Zero value: the paper's Table 4 shape.
	Topology experiment.Topology
	// Options customizes protocol configuration and link conditioning,
	// exactly as for virtual runs.
	Options experiment.Options
	// Seed derives the kernel's random stream. 0 means 1.
	Seed int64
	// Dilation maps virtual onto wall-clock time: wall seconds per
	// virtual second. 1.0 serves in real time; 0.001 runs the simulation
	// a thousandfold faster, so second-scale protocol timers land on
	// millisecond-scale wall latencies. 0 means 1.0.
	Dilation float64
	// Oracle, when non-nil, attaches the run-time consistency oracle
	// through verify.AttachOracle, as a virtual run does; zero fields
	// take the system's defaults. Its first violation also freezes the
	// flight recorder. The gateway exposes the report at /v1/oracle.
	Oracle *verify.OracleConfig
	// Telemetry is the metrics registry the driver feeds (frame counters,
	// kernel gauges, oracle near-misses).
	// Nil means a fresh private registry — deliberately NOT the
	// experiment package's process default, so a daemon's live series
	// never interleave with a sweep's. Read it back with
	// Driver.Telemetry; the gateway serves it at /metrics.
	Telemetry *obs.Registry
}

// Driver runs one scenario in wall-clock time. Create with New, then
// Start; after Start all access to simulation state must go through
// Call.
type Driver struct {
	cfg Config
	k   *sim.Kernel
	sc  *experiment.Scenario

	// reg is the telemetry registry (never nil after New); flight is the
	// flight recorder of the recent trace records (obs.DefaultFlightSize
	// of them). Ring memory is plain; snapshot via FlightDump (event
	// loop or post-stop only). oracle is nil unless Config.Oracle is set.
	reg     *obs.Registry
	flight  *obs.FlightRecorder
	oracle  *verify.Oracle
	pending *obs.Gauge // kernel queue depth, set each loop pass

	inj      chan injection
	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	// dead flips (under deadMu) after the event loop exits and before
	// the final injection drain, so a Call racing with shutdown
	// either lands in the buffer the drain will empty or observes dead
	// and reports ErrStopped — never a silently dropped function.
	dead   bool
	deadMu sync.RWMutex

	// Cross-goroutine progress counters.
	vnow       atomic.Int64
	fired      atomic.Uint64
	injections atomic.Uint64
}

// Stats is a point-in-time snapshot of driver progress, readable from
// any goroutine.
type Stats struct {
	// VirtualTime is the kernel clock as of the last event-loop pass.
	VirtualTime sim.Time
	// EventsFired counts executed simulation events.
	EventsFired uint64
	// Injections counts external functions serialized into the loop.
	Injections uint64
}

// New builds the scenario for live serving. The returned driver is
// idle: the virtual clock does not advance until Start.
func New(cfg Config) (*Driver, error) {
	if cfg.Dilation < 0 {
		return nil, fmt.Errorf("live: negative dilation %v", cfg.Dilation)
	}
	if cfg.Dilation == 0 {
		cfg.Dilation = 1.0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	d := &Driver{
		cfg:    cfg,
		inj:    make(chan injection, 1024),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	d.k = sim.New(cfg.Seed)
	d.sc = experiment.BuildTopology(cfg.System, d.k, cfg.Topology, cfg.Options)
	// Telemetry: frame metering and the flight recorder ride the tracer
	// tee, ahead of the oracle, so a violation's ring holds its frame.
	d.reg = cfg.Telemetry
	if d.reg == nil {
		d.reg = obs.NewRegistry()
	}
	d.sc.Meter(d.reg)
	d.flight = obs.NewFlightRecorder(obs.DefaultFlightSize)
	d.sc.AddTracer(d.flight)
	d.pending = d.reg.Gauge("sd_kernel_pending", "shard", "0")
	d.reg.GaugeFunc("sd_live_virtual_seconds", func() float64 {
		return sim.Time(d.vnow.Load()).Sec()
	})
	d.reg.GaugeFunc("sd_live_events_fired", func() float64 {
		return float64(d.fired.Load())
	})
	if cfg.Oracle != nil {
		// The first violation freezes the flight recorder, preserving
		// the lead-up in the ring; the hook composes with any caller
		// hook already in the config.
		ocfg, fr := *cfg.Oracle, d.flight
		prev := ocfg.OnViolation
		ocfg.OnViolation = func(v verify.OracleViolation) {
			fr.Freeze(v.String())
			if prev != nil {
				prev(v)
			}
		}
		d.oracle = verify.AttachOracle(d.sc, ocfg)
	}
	return d, nil
}

// Telemetry exposes the driver's metrics registry: counters and gauges
// are atomics, readable from any goroutine (the gateway scrapes them
// while the loop runs).
func (d *Driver) Telemetry() *obs.Registry { return d.reg }

// Done is closed when the event loop has exited.
func (d *Driver) Done() <-chan struct{} { return d.done }

// FlightDump snapshots the flight-recorder ring: through the event loop
// while the driver runs, directly once it has stopped.
func (d *Driver) FlightDump() []obs.FlightSnapshot {
	var snap obs.FlightSnapshot
	take := func() { snap = d.flight.Snapshot() }
	if err := d.Call(take); err != nil {
		// Stopped: the loop is gone, so the ring's plain memory is safe
		// to read directly.
		take()
	}
	return []obs.FlightSnapshot{snap}
}

// Start launches the event loop; the virtual clock begins chasing the
// wall clock. Starting twice, or after Stop, panics.
func (d *Driver) Start() {
	select {
	case <-d.stopCh:
		panic("live: driver stopped")
	default:
	}
	if d.started.Swap(true) {
		panic("live: driver already started")
	}
	go d.run()
}

// Stop halts the event loop and waits for it to exit. Injections still
// queued when the loop exits are executed during the final drain, so
// in-flight Calls complete; anything injected afterwards fails with
// ErrStopped. Stopping a driver that was never started is a clean
// no-op shutdown.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() {
		close(d.stopCh)
		if !d.started.Load() {
			// The loop never ran, so nobody else will complete the
			// shutdown protocol.
			d.deadMu.Lock()
			d.dead = true
			d.deadMu.Unlock()
			close(d.done)
		}
	})
	<-d.done
}

// injection is one queued unit of external work: fn, plus the buffered
// done channel the loop signals once fn has run.
type injection struct {
	fn   func()
	done chan struct{}
}

// donePool recycles Call's done channels (capacity 1, so the loop never
// blocks signalling one). A channel goes back only once drained.
var donePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// exec runs one injection on the event loop.
func (in injection) exec() {
	in.fn()
	in.done <- struct{}{}
}

func (d *Driver) inject(in injection) error {
	d.deadMu.RLock()
	defer d.deadMu.RUnlock()
	if d.dead {
		return ErrStopped
	}
	// The stopCh case keeps a blocked sender from deadlocking against
	// the exiting loop (which acquires deadMu exclusively before the
	// final drain).
	select {
	case d.inj <- in:
		return nil
	case <-d.stopCh:
		select {
		case d.inj <- in:
			return nil
		default:
			return ErrStopped
		}
	}
}

// Call serializes fn into the event loop, at the kernel's current
// virtual instant, and waits until it has run. Safe from any goroutine;
// order is preserved (one FIFO channel), and a full queue blocks the
// caller. It allocates nothing: the queue carries fn by value and the
// done channel is pooled. It must not be called from inside the event
// loop (a tap or timer callback): the loop would wait on itself.
func (d *Driver) Call(fn func()) error {
	done := donePool.Get().(chan struct{})
	if err := d.inject(injection{fn: fn, done: done}); err != nil {
		donePool.Put(done)
		return err
	}
	select {
	case <-done:
	case <-d.done:
		// The final drain runs every accepted injection before the loop
		// reports done — except on a driver stopped before it started.
		select {
		case <-done:
		default:
			return ErrStopped
		}
	}
	donePool.Put(done)
	return nil
}

// Stats reports driver progress.
func (d *Driver) Stats() Stats {
	return Stats{
		VirtualTime: sim.Time(d.vnow.Load()),
		EventsFired: d.fired.Load(),
		Injections:  d.injections.Load(),
	}
}

// run is the event loop: advance the kernel to the wall clock's virtual
// position, drain injections, sleep until the next event is due or an
// injection arrives. When the kernel falls behind the wall clock (a
// burst of events at small dilation), it catches up as fast as the CPU
// allows — time dilation is a target, not a guarantee.
func (d *Driver) run() {
	defer func() {
		// Refuse new injections first, then drain what was accepted:
		// every accepted injection has its function executed.
		d.deadMu.Lock()
		d.dead = true
		d.deadMu.Unlock()
		for {
			select {
			case in := <-d.inj:
				in.exec()
			default:
				close(d.done)
				return
			}
		}
	}()
	tm := newTimeMap(time.Now(), d.k.Now(), d.cfg.Dilation)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		default:
		}
		d.k.Run(tm.vAt(time.Now()))
		d.vnow.Store(int64(d.k.Now()))
		d.fired.Store(d.k.Fired())
		// The queue depth, read here on the goroutine that owns it.
		d.pending.Set(int64(d.k.Pending()))
		// Drain queued injections; each runs at the current instant and
		// may schedule fresh events, picked up by the next pass.
		for drained := false; !drained; {
			select {
			case in := <-d.inj:
				in.exec()
				d.injections.Add(1)
			default:
				drained = true
			}
		}
		var wait time.Duration
		if next, ok := d.k.NextEventTime(); ok {
			wait = time.Until(tm.wallAt(next))
			if wait <= 0 {
				continue
			}
		} else {
			// Idle kernel (cannot normally happen — leases and announce
			// trains are always pending): poll for injections.
			wait = 100 * time.Millisecond
		}
		timer.Reset(wait)
		select {
		case <-d.stopCh:
			stopTimer(timer)
			return
		case in := <-d.inj:
			stopTimer(timer)
			in.exec()
			d.injections.Add(1)
		case <-timer.C:
		}
	}
}

// timeMap converts between wall and virtual time in pure integer
// arithmetic. The dilation factor (wall seconds per virtual second) is
// quantized to a rational num/1e9 — one wall-nanosecond-per-virtual-
// second resolution — and both directions use a 128-bit multiply/divide.
// The float64 mapping this replaces lost integer precision once the
// nanosecond products passed 2^53 (~104 wall-days at dilation 1), after
// which a long-running driver drifted against the wall clock and could
// hand Run a virtual horizon below a previously used one.
type timeMap struct {
	t0 time.Time
	v0 sim.Time
	// num is wall nanoseconds per 1e9 virtual nanoseconds (dilation
	// quantized to 1e-9); always ≥ 1.
	num uint64
}

func newTimeMap(t0 time.Time, v0 sim.Time, dilation float64) timeMap {
	num := int64(math.Round(dilation * 1e9))
	if num < 1 {
		num = 1
	}
	return timeMap{t0: t0, v0: v0, num: uint64(num)}
}

// vAt maps a wall instant to the virtual time the kernel should have
// reached. Instants before t0 clamp to v0: the mapping never goes
// backwards, preserving the non-decreasing Run horizons the kernel's
// resumable drain relies on.
func (tm timeMap) vAt(w time.Time) sim.Time {
	d := w.Sub(tm.t0)
	if d <= 0 {
		return tm.v0
	}
	return tm.v0 + sim.Time(mulDiv(uint64(d), 1e9, tm.num))
}

// wallAt maps a virtual instant to its wall-clock due time.
func (tm timeMap) wallAt(v sim.Time) time.Time {
	if v <= tm.v0 {
		return tm.t0
	}
	return tm.t0.Add(time.Duration(mulDiv(uint64(v-tm.v0), tm.num, 1e9)))
}

// mulDiv computes a*b/c with a 128-bit intermediate, saturating at
// MaxInt64 when the quotient itself would overflow (virtual offsets
// beyond ~292 years — far past any run length).
func mulDiv(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi >= c {
		return math.MaxInt64
	}
	q, _ := bits.Div64(hi, lo, c)
	if q > math.MaxInt64 {
		return math.MaxInt64
	}
	return q
}

// stopTimer halts a running timer and drains a concurrent expiry so the
// next Reset starts clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
