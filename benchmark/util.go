package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// runConfig is what one invocation was asked to do.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
}

// sizes fixes the workload dimensions. full is the benchmark; smoke is
// the same code at sizes the tier-1 test finishes in seconds.
type sizes struct {
	name string
	// paper_sweep: runs per (system, lambda) cell of one figure, and the
	// lambda grid (nil = the paper's 19 points).
	sweepRuns    int
	sweepLambdas []float64
	// scale_static: the two populations; scale_dynamics: its population
	// and how many seeds one pass runs (the first is replayed).
	staticN, staticBigN int
	dynN, dynSeeds      int
	// live_serve: participants.
	liveP int
	// setupReps is how many times set-up is repeated for its median.
	setupReps int
	// micro scales the sim/netsim/protocol probe loop counts; the deep
	// kernel probe keeps kernelDepth timers pending and the wide multicast
	// probe has fanout members (1M and 10k at full scale, as the metric
	// names say).
	micro, kernelDepth, fanout int
}

var (
	fullSizes = sizes{name: "full", sweepRuns: 30, staticN: 10000, staticBigN: 20000,
		dynN: 5000, dynSeeds: 2, liveP: 1000, setupReps: 3, micro: 100, kernelDepth: 1 << 20, fanout: 10000}
	smokeSizes = sizes{name: "smoke", sweepRuns: 3, sweepLambdas: []float64{0, 0.30, 0.90},
		staticN: 100, staticBigN: 200, dynN: 100, dynSeeds: 1, liveP: 8, setupReps: 1, micro: 1, kernelDepth: 1 << 12, fanout: 1000}
)

// result is what a workload hands back: the contract's four keys plus
// what the human-readable report prints.
type result struct {
	attempted, failed int
	// problems lists every correctness check that did not hold; the run
	// is correct when it is empty.
	problems []string
	values   map[string]float64
	// samples counts the observations behind a timing metric.
	samples map[string]int
	notes   []string
}

func newResult(defs []metricDef) *result {
	r := &result{values: map[string]float64{}, samples: map[string]int{}}
	for _, d := range defs {
		r.values[d.Name] = 0
	}
	return r
}

// set records a metric's value. A statistic over no samples (NaN from
// internal/stats) leaves the metric at 0, "not measured".
func (r *result) set(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	if !math.IsNaN(v) {
		r.values[name] = v
	}
}

func (r *result) setN(name string, v float64, n int) {
	r.set(name, v)
	r.samples[name] = n
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// deriveSeed mixes the command-line seed with a stream and an index
// (SplitMix64 finalizer), so every input of a run comes from -seed and
// no two streams share a run seed. The result is positive and leaves
// room for experiment.SeedFor's per-cell offsets.
func deriveSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>2) | 1
}

// timeUp ends a measured phase made of whole units (figures, passes):
// after at least one unit, stop when one more would overshoot the time
// by more than stopping now undershoots it. Rounding to the nearest
// count, not up, keeps a unit of about the whole phase from running
// twice on a fast day and once on a slow one.
func timeUp(busy time.Duration, units int, seconds float64) bool {
	if units == 0 {
		return false
	}
	return busy.Seconds()+busy.Seconds()/float64(units)/2 >= seconds
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// memMark snapshots the allocator counters; since reports the deltas.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc}
}

func (m memMark) since() (mallocs, bytes float64) {
	now := markMem()
	return float64(now.mallocs - m.mallocs), float64(now.bytes - m.bytes)
}

// peakRSSMB reads VmHWM, the process's resident high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fingerprint hashes run results field by field; two runs that took the
// same simulated course hash alike. 48 bits, so the value survives a
// float64 and a JSON round trip exactly.
type fingerprint struct{ h uint64 }

func newFingerprint() *fingerprint {
	return &fingerprint{h: 14695981039346656037}
}

func (f *fingerprint) word(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
}

func (f *fingerprint) add(r metrics.RunResult) {
	f.word(uint64(r.Seed))
	f.word(uint64(r.ChangeAt))
	f.word(uint64(r.Effort))
	f.word(uint64(r.TotalDiscoverySends))
	f.word(uint64(r.TotalTransport))
	for _, u := range r.Users {
		f.word(uint64(u.User))
		f.word(uint64(u.At))
		var flags uint64
		if u.Reached {
			flags |= 1
		}
		if u.Excluded {
			flags |= 2
		}
		f.word(flags)
	}
}

func (f *fingerprint) value() float64 { return float64(f.h & (1<<48 - 1)) }

// env describes the host, so a number is never read without it.
// go 1.24 sets GOMAXPROCS from the CPU count and ignores a cgroup
// quota, hence both are recorded.
func env() map[string]string {
	e := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e["commit"] = s.Value
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// generators is how many load-generating goroutines or connections a
// workload may use: one process, at most nproc of them.
func generators() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	if n < 1 {
		n = 1
	}
	return n
}
