package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registering the same series returns the same handle.
	if r.Counter("x_total") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("y", "shard", "0")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if r.Gauge("y", "shard", "0") != g {
		t.Fatal("re-registration returned a different gauge")
	}
	// Same family, different labels: distinct series.
	if r.Gauge("y", "shard", "1") == g {
		t.Fatal("distinct labels shared a series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(r *Registry)
		clash func(r *Registry)
	}{
		{"series", func(r *Registry) { r.Counter("a") }, func(r *Registry) { r.Gauge("a") }},
		{"family", func(r *Registry) { r.Counter("a", "k", "1") }, func(r *Registry) { r.Gauge("a", "k", "2") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.setup(r)
			defer func() {
				if recover() == nil {
					t.Fatal("kind mismatch did not panic")
				}
			}()
			tc.clash(r)
		})
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	vec := r.CounterVec("kinds_total", "kind")
	kinds := []string{"a", "b", "c", "d"}
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				vec.Get(kinds[(w+i)%len(kinds)]).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	var total uint64
	for _, k := range kinds {
		total += vec.Get(k).Load()
	}
	if total != workers*per {
		t.Fatalf("vec total = %d, want %d", total, workers*per)
	}
}

func TestHistogramSummary(t *testing.T) {
	h := newHistogram()
	if s := h.Summary(); s.N != 0 {
		t.Fatalf("empty histogram N = %d", s.N)
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Summary()
	if s.N != 1000 {
		t.Fatalf("N = %d, want 1000", s.N)
	}
	if s.Min != time.Millisecond || s.Max != time.Second {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// ~5% bucket resolution: p50 near 500ms, p99 near 990ms.
	approx := func(got, want time.Duration) bool {
		lo := time.Duration(float64(want) * 0.90)
		hi := time.Duration(float64(want) * 1.10)
		return got >= lo && got <= hi
	}
	if !approx(s.P50, 500*time.Millisecond) {
		t.Errorf("p50 = %v, want ≈500ms", s.P50)
	}
	if !approx(s.P95, 950*time.Millisecond) {
		t.Errorf("p95 = %v, want ≈950ms", s.P95)
	}
	if !approx(s.P99, 990*time.Millisecond) {
		t.Errorf("p99 = %v, want ≈990ms", s.P99)
	}
	if !approx(s.Mean, 500*time.Millisecond) {
		t.Errorf("mean = %v, want ≈500ms", s.Mean)
	}
}

// TestHistogramSummaryNotTorn hammers Observe from racing goroutines
// while scraping Summary, asserting the invariant the PR-6 live
// Histogram fix established: quantiles are computed over exactly the N
// samples the summary reports, never a half-updated view where p99
// reflects more samples than n.
func TestHistogramSummaryNotTorn(t *testing.T) {
	h := newHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration(1+i%1000) * time.Millisecond)
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := h.Summary()
		if s.N == 0 {
			continue
		}
		// Every quantile and the mean stay within the observed range; the
		// count comes from the same bucket pass that produced them.
		for _, q := range []time.Duration{s.P50, s.P95, s.P99, s.Mean} {
			if q < s.Min || q > s.Max {
				t.Fatalf("torn summary: q=%v outside [%v, %v] at n=%d", q, s.Min, s.Max, s.N)
			}
		}
	}
	close(stop)
	wg.Wait()
	// Quiesced: the summary must now be exactly self-consistent.
	s := h.Summary()
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if s.N != n {
		t.Fatalf("quiesced N = %d, bucket total = %d", s.N, n)
	}
}

func msg(kind string, from, to netsim.NodeID) *netsim.Message {
	return &netsim.Message{Kind: kind, From: from, To: to}
}

func TestFlightRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(16)
	for i := 0; i < 40; i++ {
		fr.MessageSent(sim.Time(i), msg(fmt.Sprintf("k%d", i), 1, 2))
	}
	s := fr.Snapshot()
	if s.Total != 40 {
		t.Fatalf("total = %d, want 40", s.Total)
	}
	if len(s.Events) != 16 {
		t.Fatalf("len(events) = %d, want 16 (ring capacity)", len(s.Events))
	}
	// Oldest surviving event first: 40-16=24 … 39.
	for i, ev := range s.Events {
		if want := sim.Time(24 + i); ev.At != want {
			t.Fatalf("events[%d].At = %v, want %v", i, ev.At, want)
		}
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.MessageDropped(7, msg("Probe", 1, 2), "loss")
	fr.NodeEvent(9, 5, "crash")
	s := fr.Snapshot()
	if len(s.Events) != 2 || s.Total != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Events[0].Op != OpDropped || s.Events[0].Reason != "loss" {
		t.Fatalf("event 0 = %+v", s.Events[0])
	}
	if s.Events[1].Op != OpNode || s.Events[1].Kind != "crash" || s.Events[1].From != 5 {
		t.Fatalf("event 1 = %+v", s.Events[1])
	}
}

func TestFlightRecorderFreeze(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.MessageSent(1, msg("A", 1, 2))
	fr.Freeze("oracle: StaleBound")
	fr.Freeze("second caller loses")
	fr.MessageSent(2, msg("B", 1, 2))
	s := fr.Snapshot()
	if s.Frozen != "oracle: StaleBound" {
		t.Fatalf("frozen reason = %q", s.Frozen)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != "A" {
		t.Fatalf("ring recorded past freeze: %+v", s.Events)
	}
}

func TestFlightRecorderSizeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-1, DefaultFlightSize}, {0, DefaultFlightSize}, {1, 16}, {17, 32}, {256, 256}} {
		if fr := NewFlightRecorder(tc.in); len(fr.buf) != tc.want {
			t.Errorf("NewFlightRecorder(size=%d): cap %d, want %d", tc.in, len(fr.buf), tc.want)
		}
	}
}

// Zero-alloc guards in the PR-2 gate style: the telemetry hot paths
// must not allocate, or attaching a tracer would break netsim's
// conditioned fast-path gates.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	vec := r.CounterVec("v_total", "kind", "shard", "0")
	vec.Get("warm") // register the series outside the measured loop
	h := r.Histogram("h")
	fr := NewFlightRecorder(64)
	m := msg("Probe", 1, 2)
	nm := r.NetTracer()
	nm.MessageSent(0, m) // warm the kind-vec entry
	nm.MessageDropped(0, m, "loss")

	cases := []struct {
		name string
		f    func()
	}{
		{"counter.Inc", func() { c.Inc() }},
		{"gauge.Set", func() { g.Set(3) }},
		{"vec.Get.Inc", func() { vec.Get("warm").Inc() }},
		{"hist.Observe", func() { h.Observe(time.Millisecond) }},
		{"flight.append", func() { fr.MessageSent(1, m) }},
		{"net.MessageSent", func() { nm.MessageSent(1, m) }},
		{"net.MessageDelivered", func() { nm.MessageDelivered(1, m) }},
		{"net.MessageDropped", func() { nm.MessageDropped(1, m, "loss") }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.f); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, avg)
		}
	}
}

func TestPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("sd_frames_sent_total", "shard", "0").Add(12)
	r.Counter("sd_frames_sent_total", "shard", "1").Add(3)
	r.Gauge("sd_kernel_pending", "shard", "0").Set(42)
	r.GaugeFunc("sd_up", func() float64 { return 1 })
	h := r.Histogram("sd_rt_seconds")
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	r.Counter("weird_total", "path", `a\b"c`+"\n").Inc()

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# TYPE sd_frames_sent_total counter\n",
		`sd_frames_sent_total{shard="0"} 12` + "\n",
		`sd_frames_sent_total{shard="1"} 3` + "\n",
		"# TYPE sd_kernel_pending gauge\n",
		`sd_kernel_pending{shard="0"} 42` + "\n",
		"# TYPE sd_up gauge\n",
		"sd_up 1\n",
		"# TYPE sd_rt_seconds summary\n",
		`sd_rt_seconds{quantile="0.5"}`,
		"sd_rt_seconds_count 2\n",
		`weird_total{path="a\\b\"c\n"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	// Exactly one TYPE line per family.
	if n := strings.Count(out, "# TYPE sd_frames_sent_total "); n != 1 {
		t.Errorf("TYPE lines for sd_frames_sent_total = %d, want 1", n)
	}
	// Structural validity: every non-comment line is "series value".
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 || sp == len(line)-1 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total").Add(9)
	r.Gauge("depth").Set(-4)
	r.Histogram("lat").Observe(time.Millisecond)
	snap := r.Snapshot()
	if snap["ops_total"] != uint64(9) {
		t.Fatalf("ops_total = %v", snap["ops_total"])
	}
	if snap["depth"] != int64(-4) {
		t.Fatalf("depth = %v", snap["depth"])
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON emitted invalid JSON: %v", err)
	}
	if _, ok := back["lat"].(map[string]any); !ok {
		t.Fatalf("lat not a summary object: %v", back["lat"])
	}

	// The file sink writes the same bytes, "-" writes them to the given
	// stdout, and a failed create is reported.
	path := filepath.Join(t.TempDir(), "telemetry.json")
	if err := r.WriteJSONFile(path, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("WriteJSONFile wrote %q (%v), want %q", got, err, buf.Bytes())
	}
	var out bytes.Buffer
	if err := r.WriteJSONFile("-", &out); err != nil || !bytes.Equal(out.Bytes(), buf.Bytes()) {
		t.Errorf("WriteJSONFile(-) wrote %q (%v), want %q", out.Bytes(), err, buf.Bytes())
	}
	if err := r.WriteJSONFile(filepath.Join(path, "sub.json"), nil); err == nil {
		t.Error("WriteJSONFile under a regular file succeeded")
	}
}

func TestNetTracerLeaseCounting(t *testing.T) {
	r := NewRegistry()
	nm := r.NetTracer()
	packet := func(k wire.Kind, from, to netsim.NodeID) *netsim.Message {
		return &netsim.Message{Kind: k.String(), Packet: wire.Packet{Kind: k}, From: from, To: to}
	}
	nm.MessageDelivered(1, packet(wire.Renew, 1, 2))
	nm.MessageDelivered(2, packet(wire.RenewAck, 2, 1))
	nm.MessageDelivered(3, packet(wire.RenewError, 2, 1))
	nm.MessageDelivered(4, packet(wire.Renew, 3, 2))
	if got := r.Counter("sd_lease_renewals_total", "shard", "0").Load(); got != 2 {
		t.Fatalf("renewals = %d, want 2", got)
	}
	if got := r.Counter("sd_lease_refusals_total", "shard", "0").Load(); got != 1 {
		t.Fatalf("refusals = %d, want 1", got)
	}
	if got := r.Counter("sd_frames_delivered_total", "shard", "0").Load(); got != 4 {
		t.Fatalf("delivered = %d, want 4", got)
	}
}

func TestWriteFlightJSON(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.MessageSent(5, msg("Probe", 1, 2))
	fr.Freeze("test")
	var buf bytes.Buffer
	if err := WriteFlightJSON(&buf, []FlightSnapshot{fr.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	var snaps []FlightSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snaps); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Frozen != "test" || len(snaps[0].Events) != 1 {
		t.Fatalf("round-trip = %+v", snaps)
	}
}

// decodeTrace reads a JSONL trace stream back into records.
func decodeTrace(t *testing.T, stream []byte) []TraceEvent {
	t.Helper()
	var out []TraceEvent
	dec := json.NewDecoder(bytes.NewReader(stream))
	for dec.More() {
		var ev TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("record %d: %v", len(out), err)
		}
		out = append(out, ev)
	}
	return out
}

// A network traced into the JSONL writer and a flight ring at once:
// the stream decodes to exactly the ring's records — a counted send
// and its delivery, an interface transition, and a send dropped on it,
// at their virtual times.
func TestTraceWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	fr := NewFlightRecorder(16)
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	b.SetEndpoint(netsim.EndpointFunc(func(*netsim.Message) {}))
	nw.SetTracer(netsim.TeeTracer(w, fr))

	nw.SendUDP(a.ID, b.ID, netsim.Outgoing{Kind: "ServiceUpdate", Counted: true})
	k.At(sim.Second, func() { a.SetTx(false) })
	k.At(2*sim.Second, func() { nw.SendUDP(a.ID, b.ID, netsim.Outgoing{Kind: "ServiceUpdate"}) })
	k.Run(3 * sim.Second)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	events := decodeTrace(t, buf.Bytes())
	if snap := fr.Snapshot(); fmt.Sprint(events) != fmt.Sprint(snap.Events) {
		t.Fatalf("stream %+v\nring   %+v", events, snap.Events)
	}
	var ops []string
	for _, ev := range events {
		ops = append(ops, ev.Op+" "+ev.Kind+" "+ev.Reason)
	}
	if want := "[sent ServiceUpdate  delivered ServiceUpdate  node Tx down  sent ServiceUpdate  dropped ServiceUpdate tx down]"; fmt.Sprint(ops) != want {
		t.Fatalf("records %v, want %s", ops, want)
	}
	if e := events[0]; !e.Counted || e.Transport != "udp" || e.From != a.ID || e.To != b.ID {
		t.Errorf("counted send = %+v", e)
	}
	if e := events[2]; e.At != sim.Time(sim.Second) || e.From != a.ID {
		t.Errorf("interface transition = %+v, want node %d at 1s", e, a.ID)
	}
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.after -= len(p)
	return len(p), nil
}

// The first write error sticks: Flush reports it instead of draining
// the buffer.
func TestTraceWriterStickyError(t *testing.T) {
	w := NewTraceWriter(&failingWriter{after: 1})
	for i := 0; i < 10000; i++ {
		w.MessageSent(0, msg("x", 1, 2))
	}
	if w.Flush() == nil {
		t.Error("write error not surfaced")
	}
}

// A healthy writer reports no error; a failing one records the first
// error, Flush reports it, and a record after it is a silent no-op.
func TestTraceWriterErr(t *testing.T) {
	healthy := NewTraceWriter(&bytes.Buffer{})
	healthy.MessageDelivered(1, msg("x", 1, 2))
	if err := healthy.Flush(); err != nil {
		t.Fatalf("healthy writer reports error %v", err)
	}
	w := NewTraceWriter(&failingWriter{})
	m := msg("Announce", 1, 2)
	for i := 0; i < 10000; i++ {
		w.MessageSent(sim.Time(i), m)
	}
	if w.err == nil {
		t.Fatal("write error never recorded")
	}
	first := w.err
	w.MessageDropped(1, m, "lost")
	if w.err != first {
		t.Fatalf("error after a post-failure record = %v, want the first %v", w.err, first)
	}
	if err := w.Flush(); err != first {
		t.Fatalf("Flush = %v, want the sticky error %v", err, first)
	}
}

// Stream times are the record's virtual nanoseconds, the unit the
// flight ring holds, not seconds.
func TestTraceTimesAreVirtualNanoseconds(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	w.NodeEvent(1500*sim.Millisecond, 3, "Rx down")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"at":1500000000,`) {
		t.Fatalf("line %q does not carry at=1500000000", buf.String())
	}
	events := decodeTrace(t, buf.Bytes())
	if len(events) != 1 || events[0].At != 1500*sim.Millisecond || events[0].From != 3 || events[0].Kind != "Rx down" {
		t.Fatalf("events = %+v, want one Rx down on node 3 at 1.5s", events)
	}
}
